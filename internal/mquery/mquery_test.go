package mquery

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/query"
)

// fetchFromGraph serves storage records straight off the in-memory graph,
// the way a single all-knowing processor would.
func fetchFromGraph(g *graph.Graph) Fetch {
	return func(ids []graph.NodeID) (map[graph.NodeID]gstore.Record, error) {
		out := make(map[graph.NodeID]gstore.Record, len(ids))
		for _, id := range ids {
			if !g.Exists(id) {
				continue
			}
			out[id] = *gstore.RecordOf(g, id)
		}
		return out, nil
	}
}

// drive runs the full plan → subtask → merge loop the transports implement,
// returning the answer and how many waves partial evaluation needed. It
// asserts the per-partition budget on every KindReach partial — the
// guarantee the subsystem is named for.
func drive(t *testing.T, g *graph.Graph, q query.Query) (query.Result, int) {
	t.Helper()
	pl, err := NewPlan(q, g.LabelID)
	if err != nil {
		t.Fatalf("NewPlan(%+v): %v", q, err)
	}
	m := NewMerger(pl)
	fetch := fetchFromGraph(g)
	wave := pl.Subtasks
	waves := 0
	for len(wave) > 0 && !m.Found() {
		waves++
		for _, st := range wave {
			part, units, err := Run(st, fetch)
			if err != nil {
				t.Fatalf("Run(%+v): %v", st, err)
			}
			if part.Visited > 0 && units < part.Visited {
				t.Fatalf("subtask billed %d units for %d visits", units, part.Visited)
			}
			if st.Kind == KindReach && part.Visited > pl.budget {
				t.Fatalf("subtask visited %d nodes, budget %d", part.Visited, pl.budget)
			}
			if err := m.Absorb(part); err != nil {
				t.Fatalf("Absorb: %v", err)
			}
			if m.Found() {
				break
			}
		}
		wave = m.NextWave()
	}
	return m.Result(), waves
}

func TestOracleEquivalenceMixedWorkload(t *testing.T) {
	g := gen.KnowledgeGraph(600, 2400, 4, 3, 9)
	qs := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots:       40,
		QueriesPerHotspot: 5,
		Types:             []query.Type{query.PatternMatch, query.BoundedReach},
		VisitBudget:       8, // small enough to force relaunch waves
		Seed:              7,
	})
	multiWave := 0
	byType := map[query.Type]int{}
	for _, q := range qs {
		got, waves := drive(t, g, q)
		want := query.Answer(g, q)
		if got != want {
			t.Fatalf("query %d (%v): distributed %+v, oracle %+v", q.ID, q.Type, got, want)
		}
		if waves > 1 {
			multiWave++
		}
		byType[q.Type]++
	}
	if byType[query.PatternMatch] == 0 || byType[query.BoundedReach] == 0 {
		t.Fatalf("workload mix degenerate: %v", byType)
	}
	if multiWave == 0 {
		t.Fatal("budget 8 never forced a second wave — partial evaluation untested")
	}
}

// modCoords is a synthetic coordinate source: coordinates are a pure
// function of the node id, and every 10th node is uncovered (nil row) to
// exercise the ranking path's drop-uncovered rule.
type modCoords struct{}

func (modCoords) Coords(u graph.NodeID) []float32 {
	if u%10 == 0 {
		return nil
	}
	return []float32{float32(u % 7), float32(u % 13), float32(u % 3)}
}

func TestKNNOracleEquivalence(t *testing.T) {
	g := gen.KnowledgeGraph(600, 2400, 4, 3, 9)
	qs := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots:       40,
		QueriesPerHotspot: 5,
		Types:             []query.Type{query.KNearest},
		K:                 5,
		Seed:              7,
	})
	src := modCoords{}
	nonEmpty := 0
	for _, q := range qs {
		if q.Type != query.KNearest {
			continue // degenerate slots fall back to NeighborAgg
		}
		pl, err := NewPlan(q, g.LabelID)
		if err != nil {
			t.Fatalf("NewPlan(%+v): %v", q, err)
		}
		if pl.Kind != KindKNN || len(pl.Subtasks) != 1 {
			t.Fatalf("KNN plan: kind %v, %d subtasks", pl.Kind, len(pl.Subtasks))
		}
		m := NewMerger(pl)
		for _, st := range pl.Subtasks {
			part, units, err := Run(st, fetchFromGraph(g))
			if err != nil {
				t.Fatalf("Run(%+v): %v", st, err)
			}
			if part.Visited > 0 && units < part.Visited {
				t.Fatalf("subtask billed %d units for %d visits", units, part.Visited)
			}
			if err := m.Absorb(part); err != nil {
				t.Fatalf("Absorb: %v", err)
			}
		}
		if len(m.NextWave()) != 0 {
			t.Fatal("KNN plan relaunched a wave")
		}
		for _, c := range m.Candidates() {
			if c == q.Node {
				t.Fatalf("candidate set of node %d contains the anchor", q.Node)
			}
		}
		got := query.KNNResult(src, q, m.Candidates())
		want := query.AnswerKNN(g, src, q)
		if got != want {
			t.Fatalf("query %d on node %d: distributed %+v, oracle %+v", q.ID, q.Node, got, want)
		}
		if got.Count > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every KNN answer empty — the ranking path is untested")
	}
}

func TestLabelledPatternOracle(t *testing.T) {
	// 0 (unused; node 0 never anchors), a:author, p:paper, q:paper,
	// v:venue. a -wrote-> p, a -wrote-> q, p -at-> v, q -at-> v.
	g := graph.New()
	g.AddNode("pad") // 0
	a := g.AddNode("author")
	p := g.AddNode("paper")
	qn := g.AddNode("paper")
	v := g.AddNode("venue")
	for _, e := range []struct {
		u, w graph.NodeID
		l    string
	}{{a, p, "wrote"}, {a, qn, "wrote"}, {p, v, "at"}, {qn, v, "at"}} {
		if err := g.AddEdge(e.u, e.w, e.l); err != nil {
			t.Fatal(err)
		}
	}
	// Anchored at the author: papers x written by a and their venues y.
	pat := &query.Pattern{
		Nodes: []query.PatternNode{{Anchor: a}, {Label: "paper"}, {Label: "venue"}},
		Edges: []query.PatternEdge{
			{From: 0, To: 1, Label: "wrote"},
			{From: 1, To: 2, Label: "at"},
		},
	}
	q := query.Query{Type: query.PatternMatch, Node: a, Pattern: pat, Dir: graph.Out}
	got, _ := drive(t, g, q)
	want := query.Answer(g, q)
	if got != want || got.Matches != 2 {
		t.Fatalf("distributed %+v, oracle %+v, want 2 matches", got, want)
	}

	// A label the dataset never interned: valid empty plan, zero matches.
	pat2 := &query.Pattern{
		Nodes: []query.PatternNode{{Anchor: a}, {Label: "starship"}},
		Edges: []query.PatternEdge{{From: 0, To: 1}},
	}
	q2 := query.Query{Type: query.PatternMatch, Node: a, Pattern: pat2, Dir: graph.Out}
	pl, err := NewPlan(q2, g.LabelID)
	if err != nil {
		t.Fatalf("unknown label should plan cleanly: %v", err)
	}
	if len(pl.Subtasks) != 0 {
		t.Fatalf("unknown label planned %d subtasks", len(pl.Subtasks))
	}
	if r := NewMerger(pl).Result(); r.Matches != 0 {
		t.Fatalf("unknown label matched %d", r.Matches)
	}
	if got, _ := drive(t, g, q2); got != query.Answer(g, q2) {
		t.Fatalf("unknown-label answers diverge")
	}

	// A labelled pattern with no resolver cannot be planned.
	if _, err := NewPlan(q, nil); !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("labelled pattern with nil resolver: %v", err)
	}
	// An unlabelled pattern needs no resolver.
	q3 := query.Query{
		Type: query.PatternMatch,
		Node: a,
		Dir:  graph.Out,
		Pattern: &query.Pattern{
			Nodes: []query.PatternNode{{Anchor: a}, {}},
			Edges: []query.PatternEdge{{From: 0, To: 1}},
		},
	}
	if _, err := NewPlan(q3, nil); err != nil {
		t.Fatalf("unlabelled pattern with nil resolver: %v", err)
	}
}

func TestPlanPatternOwnership(t *testing.T) {
	// Two anchors at vars 0 and 1, free var 2 between them: each anchor
	// owns its incident edge with radius 1.
	g := graph.New()
	g.AddNode("") // 0
	a1, a2 := g.AddNode(""), g.AddNode("")
	pat := &query.Pattern{
		Nodes: []query.PatternNode{{Anchor: a1}, {Anchor: a2}, {}},
		Edges: []query.PatternEdge{{From: 0, To: 2}, {From: 1, To: 2}},
	}
	q := query.Query{Type: query.PatternMatch, Node: a1, Pattern: pat, Dir: graph.Out}
	pl, err := NewPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Subtasks) != 2 {
		t.Fatalf("planned %d subtasks, want 2", len(pl.Subtasks))
	}
	for i, st := range pl.Subtasks {
		if st.Kind != KindPattern || st.Radius != 1 || len(st.Edges) != 1 {
			t.Fatalf("subtask %d = %+v, want radius-1 single-edge", i, st)
		}
		if st.Edges[0].FromLabel != -1 || st.Edges[0].EdgeLabel != -1 {
			t.Fatalf("unlabelled pattern produced label constraints: %+v", st.Edges[0])
		}
	}
	if pl.Subtasks[0].Anchor != a1 || pl.Subtasks[1].Anchor != a2 {
		t.Fatalf("anchors %d,%d want %d,%d", pl.Subtasks[0].Anchor, pl.Subtasks[1].Anchor, a1, a2)
	}
	if pl.Subtasks[0].Edges[0].Edge != 0 || pl.Subtasks[1].Edges[0].Edge != 1 {
		t.Fatal("edges assigned to the wrong anchors")
	}
}

func TestPlanReachDedupsAnchors(t *testing.T) {
	q := query.Query{
		Type:        query.BoundedReach,
		Node:        1,
		Anchors:     []graph.NodeID{1, 2, 1, 2, 3},
		Target:      9,
		Hops:        2,
		VisitBudget: 4,
		Dir:         graph.Out,
	}
	pl, err := NewPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Subtasks) != 3 {
		t.Fatalf("planned %d subtasks for 3 distinct anchors", len(pl.Subtasks))
	}
	if pl.budget != 4 {
		t.Fatalf("budget = %d", pl.budget)
	}
}

func TestNewPlanRejects(t *testing.T) {
	if _, err := NewPlan(query.Query{Type: query.NeighborAgg, Node: 1, Dir: graph.Out}, nil); !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("single-seed query planned: %v", err)
	}
	if _, err := NewPlan(query.Query{Type: query.PatternMatch, Dir: graph.Out}, nil); !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("nil pattern planned: %v", err)
	}
}

func TestRunUnknownKind(t *testing.T) {
	if _, _, err := Run(Subtask{Kind: 7}, nil); err == nil {
		t.Fatal("unknown kind ran")
	}
}

func TestReachWavesOnPath(t *testing.T) {
	// Path 1 -> 2 -> ... -> 30 with a pad node 0. Budget 2 forces the BFS
	// to stop every two expansions and relaunch from the frontier.
	g := graph.New()
	g.AddNodes(31)
	for i := 1; i < 30; i++ {
		g.AddEdgeFast(graph.NodeID(i), graph.NodeID(i+1))
	}
	q := query.Query{
		Type:        query.BoundedReach,
		Node:        1,
		Anchors:     []graph.NodeID{1},
		Target:      30,
		Hops:        29,
		VisitBudget: 2,
		Dir:         graph.Out,
	}
	got, waves := drive(t, g, q)
	if !got.Reachable {
		t.Fatal("end of path not reached")
	}
	if waves < 5 {
		t.Fatalf("budget 2 on a 29-hop path took only %d waves", waves)
	}

	// Too few hops: every wave respects the shrinking allowance and the
	// composed answer is still exactly "no".
	q.Hops = 10
	if got, _ := drive(t, g, q); got.Reachable {
		t.Fatal("10 hops reached a 29-hop target")
	}

	// Unreachable target: waves terminate by frontier exhaustion.
	q.Hops = 40
	q.Target = 0x7fff
	q.Anchors = []graph.NodeID{1}
	if got, _ := drive(t, g, q); got.Reachable {
		t.Fatal("reached a node outside the graph")
	}
}

func TestReachAnchorIsTarget(t *testing.T) {
	g := graph.New()
	g.AddNodes(3)
	q := query.Query{
		Type:        query.BoundedReach,
		Node:        2,
		Anchors:     []graph.NodeID{2},
		Target:      2,
		Hops:        0,
		VisitBudget: 1,
		Dir:         graph.Out,
	}
	got, _ := drive(t, g, q)
	if !got.Reachable {
		t.Fatal("anchor == target must be reachable in 0 hops")
	}
	if want := query.Answer(g, q); got != want {
		t.Fatalf("distributed %+v, oracle %+v", got, want)
	}
}

func TestAbsorbRejections(t *testing.T) {
	g := graph.New()
	g.AddNode("")
	a := g.AddNode("")
	reachQ := query.Query{
		Type: query.BoundedReach, Node: a, Anchors: []graph.NodeID{a},
		Target: 9, Hops: 3, VisitBudget: 4, Dir: graph.Out,
	}
	pl, err := NewPlan(reachQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMerger(pl)
	if err := m.Absorb(Partial{Kind: KindPattern}); err == nil {
		t.Fatal("kind mismatch absorbed")
	}
	if err := m.Absorb(Partial{Kind: KindReach, Anchor: a, Visited: 5}); err == nil {
		t.Fatal("budget violation absorbed")
	}
	if err := m.Absorb(Partial{Kind: KindReach, Anchor: a, Frontier: []Boundary{{Node: 3, Hops: 99}}}); err == nil {
		t.Fatal("over-allowance frontier absorbed")
	}
	if err := m.Absorb(Partial{Kind: KindReach, Anchor: a, Visited: 4}); err != nil {
		t.Fatalf("at-budget partial rejected: %v", err)
	}
	if absorbed, maxV := m.Stats(); absorbed != 1 || maxV != 4 {
		t.Fatalf("Stats() = %d, %d", absorbed, maxV)
	}

	patQ := query.Query{
		Type: query.PatternMatch, Node: a, Dir: graph.Out,
		Pattern: &query.Pattern{
			Nodes: []query.PatternNode{{Anchor: a}, {}},
			Edges: []query.PatternEdge{{From: 0, To: 1}},
		},
	}
	pl2, err := NewPlan(patQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMerger(pl2)
	if err := m2.Absorb(Partial{Kind: KindPattern, Rels: []EdgeRel{{Edge: 5}}}); err == nil {
		t.Fatal("out-of-range relation absorbed")
	}
	if m2.NextWave() != nil {
		t.Fatal("pattern plans have no waves")
	}
}

func TestFetchErrorPropagates(t *testing.T) {
	boom := errors.New("storage down")
	fetch := func([]graph.NodeID) (map[graph.NodeID]gstore.Record, error) { return nil, boom }
	if _, _, err := Run(Subtask{Kind: KindReach, Anchor: 1, Target: 2, Hops: 1, Budget: 1}, fetch); !errors.Is(err, boom) {
		t.Fatalf("reach fetch error: %v", err)
	}
	if _, _, err := Run(Subtask{Kind: KindPattern, Anchor: 1, Radius: 1}, fetch); !errors.Is(err, boom) {
		t.Fatalf("pattern fetch error: %v", err)
	}
}

// TestUnknownAnchor: a subtask whose anchor has no record says so, and the
// merger fails the query with query.ErrUnknownNode when that anchor is one of
// the query's own — for every kind, leaving the merger untouched — while the
// same report from a relaunched boundary node (a dangling edge) is absorbed.
func TestUnknownAnchor(t *testing.T) {
	g := graph.New()
	g.AddNodes(4)
	g.AddEdgeFast(1, 2)
	fetch := fetchFromGraph(g)
	const missing = graph.NodeID(1 << 30)
	for _, q := range []query.Query{
		{Type: query.BoundedReach, Node: 1, Anchors: []graph.NodeID{1, missing}, Target: 3, Hops: 2, VisitBudget: 4, Dir: graph.Out},
		{Type: query.KNearest, Node: missing, Hops: 2, K: 3, Dir: graph.Both},
		{Type: query.PatternMatch, Node: missing, Dir: graph.Out, Pattern: &query.Pattern{
			Nodes: []query.PatternNode{{Anchor: missing}, {}},
			Edges: []query.PatternEdge{{From: 0, To: 1}},
		}},
	} {
		pl, err := NewPlan(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMerger(pl)
		rejected := 0
		for _, st := range pl.Subtasks {
			part, _, err := Run(st, fetch)
			if err != nil {
				t.Fatal(err)
			}
			if part.NoAnchor != (st.Anchor == missing) {
				t.Fatalf("%v subtask at %d: NoAnchor = %v", q.Type, st.Anchor, part.NoAnchor)
			}
			if err := m.Absorb(part); st.Anchor == missing {
				if !errors.Is(err, query.ErrUnknownNode) {
					t.Fatalf("%v anchored at a node without a record: Absorb = %v, want ErrUnknownNode", q.Type, err)
				}
				rejected++
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if absorbed, _ := m.Stats(); rejected != 1 || absorbed != len(pl.Subtasks)-1 {
			t.Fatalf("%v: %d partials rejected, %d of %d absorbed", q.Type, rejected, absorbed, len(pl.Subtasks))
		}
		if q.Type == query.BoundedReach {
			if err := m.Absorb(Partial{Kind: KindReach, Anchor: 2, NoAnchor: true}); err != nil {
				t.Fatalf("a relaunched boundary node without a record: Absorb = %v", err)
			}
		}
	}
}
