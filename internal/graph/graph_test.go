package graph

import (
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// buildDiamond returns the 4-node diamond 0->1, 0->2, 1->3, 2->3.
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < 4; i++ {
		g.AddNode("")
	}
	for _, e := range [][2]NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1], ""); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := New()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Exists(0) {
		t.Fatal("node 0 exists in empty graph")
	}
	if g.OutEdges(0) != nil || g.InEdges(0) != nil {
		t.Fatal("adjacency of missing node is non-nil")
	}
}

func TestAddNodeAssignsSequentialIDs(t *testing.T) {
	g := New()
	for want := NodeID(0); want < 10; want++ {
		if got := g.AddNode(""); got != want {
			t.Fatalf("AddNode returned %d, want %d", got, want)
		}
	}
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestAddNodesBulk(t *testing.T) {
	g := New()
	g.AddNode("first")
	first := g.AddNodes(5)
	if first != 1 {
		t.Fatalf("AddNodes first id = %d, want 1", first)
	}
	if g.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", g.NumNodes())
	}
	for id := NodeID(0); id < 6; id++ {
		if !g.Exists(id) {
			t.Fatalf("node %d missing after bulk add", id)
		}
	}
}

func TestAddEdgeUpdatesBothDirections(t *testing.T) {
	g := buildDiamond(t)
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.OutDegree(0); got != 2 {
		t.Fatalf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(3); got != 2 {
		t.Fatalf("InDegree(3) = %d, want 2", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge direction wrong")
	}
}

func TestAddEdgeMissingEndpoint(t *testing.T) {
	g := New()
	g.AddNode("")
	if err := g.AddEdge(0, 99, ""); err != ErrNoSuchNode {
		t.Fatalf("AddEdge to missing node: err = %v, want ErrNoSuchNode", err)
	}
	if err := g.AddEdge(99, 0, ""); err != ErrNoSuchNode {
		t.Fatalf("AddEdge from missing node: err = %v, want ErrNoSuchNode", err)
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := New()
	g.AddNodes(2)
	g.AddEdgeFast(0, 1)
	g.AddEdgeFast(0, 1)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (multigraph)", g.NumEdges())
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge failed on parallel edge")
	}
	if g.NumEdges() != 1 || !g.HasEdge(0, 1) {
		t.Fatal("removing one parallel edge should leave the other")
	}
}

// TestRemoveEdgeTakesLowestLabel: with parallel u->v edges of different
// labels, RemoveEdge drops the lowest-labelled one whatever the insertion
// order — the first in the (To, Label) order stored records keep, so the
// oracle and the write path remove the same edge — on both adjacency views.
func TestRemoveEdgeTakesLowestLabel(t *testing.T) {
	g := New()
	g.AddNodes(4)
	b, a := g.InternLabel("b"), g.InternLabel("a") // b < a as ids
	for _, l := range []Label{a, b} {
		if _, err := g.EnsureEdge(0, 3, l); err != nil {
			t.Fatal(err)
		}
	}
	if !g.RemoveEdge(0, 3) {
		t.Fatal("RemoveEdge(0,3) = false")
	}
	want := []Edge{{To: 3, Label: a}}
	if got := g.OutEdges(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("out-edges after removal = %v, want %v", got, want)
	}
	if got := g.InEdges(3); !reflect.DeepEqual(got, []Edge{{To: 0, Label: a}}) {
		t.Fatalf("in-edges after removal = %v, want the %d-labelled edge from 0", got, a)
	}
	if i := LowestEdge([]Edge{{1, 5}, {2, 1}, {1, 3}, {1, 3}}, 1); i != 2 {
		t.Fatalf("LowestEdge = %d, want 2 (label 3, first of the tie)", i)
	}
	if i := LowestEdge([]Edge{{1, 5}}, 2); i != -1 {
		t.Fatalf("LowestEdge of an absent target = %d, want -1", i)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := buildDiamond(t)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge(0,1) = false")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge 0->1 still present after removal")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("second RemoveEdge(0,1) = true")
	}
	if g.InDegree(1) != 0 {
		t.Fatalf("InDegree(1) = %d, want 0", g.InDegree(1))
	}
}

func TestRemoveNode(t *testing.T) {
	g := buildDiamond(t)
	if err := g.RemoveNode(1); err != nil {
		t.Fatalf("RemoveNode(1): %v", err)
	}
	if g.Exists(1) {
		t.Fatal("node 1 still exists")
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	// Edges 0->1 and 1->3 must be gone; 0->2 and 2->3 remain.
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 3) {
		t.Fatal("edges incident on removed node survive")
	}
	// The tombstoned id is not reused.
	if id := g.AddNode(""); id != 4 {
		t.Fatalf("AddNode after removal returned %d, want 4", id)
	}
	if err := g.RemoveNode(1); err != ErrNoSuchNode {
		t.Fatalf("double RemoveNode err = %v, want ErrNoSuchNode", err)
	}
}

func TestRemoveNodeWithSelfLoop(t *testing.T) {
	g := New()
	g.AddNodes(2)
	g.AddEdgeFast(0, 0)
	g.AddEdgeFast(0, 1)
	if err := g.RemoveNode(0); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0 after removing self-loop node", g.NumEdges())
	}
}

func TestNodeLabels(t *testing.T) {
	g := New()
	a := g.AddNode("person")
	b := g.AddNode("company")
	c := g.AddNode("person")
	if g.NodeLabel(a) != "person" || g.NodeLabel(b) != "company" {
		t.Fatal("node labels wrong")
	}
	if g.NodeLabelID(a) != g.NodeLabelID(c) {
		t.Fatal("equal labels interned to different ids")
	}
	if g.NodeLabelID(a) == g.NodeLabelID(b) {
		t.Fatal("distinct labels interned to same id")
	}
	if g.Labels().Len() != 3 { // "", person, company
		t.Fatalf("%d labels, want 3", g.Labels().Len())
	}
}

// TestLabelTableFull: once all 65,536 ids are taken, TryIntern reports the
// full table for a new string and still resolves a known one, and Intern
// panics.
func TestLabelTableFull(t *testing.T) {
	l := newLabels()
	for i := l.Len(); i <= int(^Label(0)); i++ {
		if _, ok := l.TryIntern(strconv.Itoa(i)); !ok {
			t.Fatalf("table full at %d labels", i)
		}
	}
	if id, ok := l.TryIntern("new"); ok || l.Len() != 1<<16 {
		t.Fatalf("TryIntern on a full table = %d, %v with %d labels; want not ok and 65536", id, ok, l.Len())
	}
	if id, ok := l.TryIntern("7"); !ok || id != 7 {
		t.Fatalf("TryIntern of a known label on a full table = %d, %v; want 7, true", id, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intern on a full table did not panic")
		}
	}()
	l.Intern("new")
}

func TestEdgeLabels(t *testing.T) {
	g := New()
	jerry := g.AddNode("Jerry Yang")
	yahoo := g.AddNode("Yahoo!")
	if err := g.AddEdge(jerry, yahoo, "founded"); err != nil {
		t.Fatal(err)
	}
	out := g.OutEdges(jerry)
	if len(out) != 1 {
		t.Fatalf("OutEdges(jerry) = %v", out)
	}
	if g.Labels().String(out[0].Label) != "founded" {
		t.Fatalf("edge label = %q, want founded", g.Labels().String(out[0].Label))
	}
	// The reverse entry carries the same label (Figure 3: F-bar).
	in := g.InEdges(yahoo)
	if len(in) != 1 || in[0].To != jerry || in[0].Label != out[0].Label {
		t.Fatalf("InEdges(yahoo) = %v, want [{%d founded}]", in, jerry)
	}
	if id, ok := g.LabelID("founded"); !ok || g.Labels().String(id) != "founded" {
		t.Fatal("LabelID round trip failed")
	}
	if _, ok := g.LabelID("unknown"); ok {
		t.Fatal("LabelID found an unknown label")
	}
}

// invariantInOutConsistent checks the adjacency invariant every loader and
// mutation must keep: u in out(v) <=> v in in(u), edge counts matching.
func invariantInOutConsistent(t *testing.T, g *Graph) {
	t.Helper()
	fwd := map[[2]NodeID]int{}
	bwd := map[[2]NodeID]int{}
	total := 0
	for u := NodeID(0); u < g.MaxNodeID(); u++ {
		if !g.Exists(u) {
			continue
		}
		for _, e := range g.OutEdges(u) {
			fwd[[2]NodeID{u, e.To}]++
			total++
		}
		for _, e := range g.InEdges(u) {
			bwd[[2]NodeID{e.To, u}]++
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("edge count %d != NumEdges %d", total, g.NumEdges())
	}
	if len(fwd) != len(bwd) {
		t.Fatalf("forward/backward edge sets differ in size: %d vs %d", len(fwd), len(bwd))
	}
	for k, n := range fwd {
		if bwd[k] != n {
			t.Fatalf("edge %v: out multiplicity %d, in multiplicity %d", k, n, bwd[k])
		}
	}
}

// TestRandomMutationInvariant drives a random add/remove workload and
// checks the in/out bijection after every step batch.
func TestRandomMutationInvariant(t *testing.T) {
	rng := xrand.New(99)
	g := New()
	g.AddNodes(30)
	for step := 0; step < 500; step++ {
		op := rng.Intn(10)
		switch {
		case op < 6: // add edge
			u := NodeID(rng.Intn(int(g.MaxNodeID())))
			v := NodeID(rng.Intn(int(g.MaxNodeID())))
			if g.Exists(u) && g.Exists(v) {
				g.AddEdgeFast(u, v)
			}
		case op < 8: // remove edge
			u := NodeID(rng.Intn(int(g.MaxNodeID())))
			v := NodeID(rng.Intn(int(g.MaxNodeID())))
			g.RemoveEdge(u, v)
		case op == 8: // remove node
			u := NodeID(rng.Intn(int(g.MaxNodeID())))
			if g.Exists(u) && g.NumNodes() > 5 {
				if err := g.RemoveNode(u); err != nil {
					t.Fatal(err)
				}
			}
		default: // add node
			g.AddNode("")
		}
		if step%50 == 0 {
			invariantInOutConsistent(t, g)
		}
	}
	invariantInOutConsistent(t, g)
}

// Property: after inserting an arbitrary edge list over k nodes, NumEdges
// equals the number of insertions and every edge is observable both ways.
func TestQuickEdgeInsertion(t *testing.T) {
	f := func(pairs []uint16) bool {
		g := New()
		g.AddNodes(64)
		for _, p := range pairs {
			u := NodeID(p % 64)
			v := NodeID((p >> 8) % 64)
			g.AddEdgeFast(u, v)
		}
		if g.NumEdges() != len(pairs) {
			return false
		}
		for _, p := range pairs {
			u := NodeID(p % 64)
			v := NodeID((p >> 8) % 64)
			if !g.HasEdge(u, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectionString(t *testing.T) {
	cases := map[Direction]string{Out: "out", In: "in", Both: "both", Direction(9): "Direction(9)"}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("Direction(%d).String() = %q, want %q", int(d), d.String(), want)
		}
	}
}
