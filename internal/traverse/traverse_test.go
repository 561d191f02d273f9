package traverse

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/query"
	"repro/internal/xrand"
)

var errStorage = errors.New("storage down")

// memFetcher serves a graph's records from memory in storage order (each
// goes through Encode/Decode, as the storage tier's do) and counts what
// the kernel asks of it. One reused buffer: a warm run allocates nothing.
type memFetcher struct {
	recs              map[graph.NodeID]gstore.Record
	buf               []gstore.FetchResult
	fetches, expanded int
	failAt            int // fail the failAt-th Fetch (1-based); 0: never
}

func newMemFetcher(t *testing.T, g *graph.Graph) *memFetcher {
	f := &memFetcher{recs: make(map[graph.NodeID]gstore.Record)}
	for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
		if g.Exists(u) {
			rec, err := gstore.Decode(u, gstore.Encode(nil, gstore.RecordOf(g, u)))
			if err != nil {
				t.Fatal(err)
			}
			f.recs[u] = rec
		}
	}
	return f
}

// Fetch serves an out-only fetch without in-lists, as the engines' steps
// do, so a kernel that reads In after asking for graph.Out disagrees with
// the oracle.
func (f *memFetcher) Fetch(ids []graph.NodeID, dir graph.Direction) ([]gstore.FetchResult, error) {
	if f.fetches++; f.fetches == f.failAt {
		return nil, errStorage
	}
	if cap(f.buf) < len(ids) {
		f.buf = make([]gstore.FetchResult, len(ids))
	}
	for i, id := range ids {
		rec, ok := f.recs[id]
		if dir == graph.Out {
			rec.In = nil
		}
		f.buf[i] = gstore.FetchResult{Record: rec, OK: ok}
	}
	return f.buf[:len(ids)], nil
}

func (f *memFetcher) Expanded(n int) { f.expanded += n }

// run executes q the way the side holding the graph does: it resolves the
// label filter against g's table first.
func run(sc *Scratch, f Fetcher, g *graph.Graph, q query.Query) (query.Result, error) {
	var lf LabelFilter
	if q.CountLabel != "" {
		lf.On = true
		lf.Label, lf.Known = g.LabelID(q.CountLabel)
	}
	return sc.Run(f, q, lf)
}

func agg(node graph.NodeID, hops int, dir graph.Direction, label string) query.Query {
	return query.Query{Type: query.NeighborAgg, Node: node, Hops: hops, Dir: dir, CountLabel: label}
}

func walk(node graph.NodeID, steps int, dir graph.Direction, restart float64, seed int64) query.Query {
	return query.Query{Type: query.RandomWalk, Node: node, Hops: steps, Dir: dir, RestartProb: restart, Seed: seed}
}

func reach(node, target graph.NodeID, hops int) query.Query {
	return query.Query{Type: query.Reachability, Node: node, Target: target, Hops: hops}
}

// tableGraph is a path 0→1→…→9 labelled even/odd, with a back edge 9→0 and
// a parallel edge 3→4; a second component 10→11→…→15; an isolated node 16
// and a tombstoned id 17.
func tableGraph(t *testing.T) *graph.Graph {
	g := graph.New()
	for i := 0; i < 18; i++ {
		g.AddNode([]string{"even", "odd"}[i%2])
	}
	for _, e := range [][2]graph.NodeID{{9, 0}, {3, 4}, {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {10, 11}, {11, 12}, {12, 13}, {13, 14}, {14, 15}} {
		g.AddEdgeFast(e[0], e[1])
	}
	if err := g.RemoveNode(17); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKernelMatchesOracleTable(t *testing.T) {
	g := tableGraph(t)
	f := newMemFetcher(t, g)
	var sc Scratch // shared: each case also checks reuse after the one before
	for name, q := range map[string]query.Query{
		"agg zero hops":                  agg(3, 0, graph.Out, ""),
		"agg out":                        agg(0, 3, graph.Out, ""),
		"agg in":                         agg(5, 2, graph.In, ""),
		"agg both, around the cycle":     agg(8, 4, graph.Both, ""),
		"agg exhausts its component":     agg(10, 9, graph.Out, ""),
		"agg isolated node":              agg(16, 3, graph.Both, ""),
		"agg from a tombstoned id":       agg(17, 2, graph.Both, ""),
		"agg from an id never allocated": agg(400, 2, graph.Out, ""),
		"agg known label":                agg(0, 4, graph.Out, "even"),
		"agg other known label":          agg(0, 4, graph.Both, "odd"),
		"agg unknown label":              agg(0, 4, graph.Out, "missing"),
		"walk zero steps":                walk(3, 0, graph.Out, 0, 1),
		"walk never restarts":            walk(0, 12, graph.Out, 0, 7),
		"walk always restarts":           walk(4, 12, graph.Out, 1, 7),
		"walk both ways with restarts":   walk(7, 10, graph.Both, 0.2, 77),
		"walk backwards":                 walk(6, 5, graph.In, 0.1, 5),
		"walk into a dead end":           walk(13, 8, graph.Out, 0, 9),
		"walk from a tombstoned id":      walk(17, 4, graph.Out, 0, 2),
		"reach self at zero hops":        reach(3, 3, 0),
		"reach zero hops":                reach(3, 4, 0),
		"reach just in range":            reach(0, 5, 5),
		"reach just out of range":        reach(0, 5, 4),
		"reach around the cycle":         reach(8, 2, 4),
		"reach against the edges":        reach(15, 10, 9),
		"reach across components":        reach(0, 15, 19),
		"reach an isolated node":         reach(0, 16, 9),
		"reach from a tombstoned id":     reach(17, 1, 3),
		"reach a tombstoned id":          reach(1, 17, 3),
	} {
		got, err := run(&sc, f, g, q)
		if want := query.Answer(g, q); err != nil || got != want {
			t.Errorf("%s: got %+v, %v; oracle %+v", name, got, err, want)
		}
	}
	// The multi-anchor kinds are not the kernel's: rejected before any fetch.
	before := f.fetches
	if _, err := sc.Run(f, query.Query{Type: query.KNearest, Node: 1}, LabelFilter{}); !errors.Is(err, query.ErrBadQuery) || f.fetches != before {
		t.Errorf("k-nearest: err = %v after %d fetches, want ErrBadQuery after none", err, f.fetches-before)
	}
}

// TestKernelOnLostRecord pins what the kernel does with a dangling id — an
// adjacency entry whose record the store does not have — which the oracle
// cannot express: the id is reached and counted but never expanded, a walk
// that steps onto it restarts, and no path leads through it. A failed fetch
// aborts the query with the fetcher's own error and no further fetch.
func TestKernelOnLostRecord(t *testing.T) {
	g := tableGraph(t)
	f := newMemFetcher(t, g)
	delete(f.recs, 12) // 10→11→[12]→13→14→15
	var sc Scratch
	for _, c := range []struct {
		q    query.Query
		want query.Result
	}{
		{agg(10, 5, graph.Out, ""), query.Result{Type: query.NeighborAgg, Count: 2}},
		{agg(10, 5, graph.Out, "even"), query.Result{Type: query.NeighborAgg, Count: 0}},
		{walk(11, 2, graph.Out, 0, 1), query.Result{Type: query.RandomWalk, EndNode: 11}},
		{reach(10, 15, 9), query.Result{Type: query.Reachability, Reachable: false}},
		{reach(10, 12, 9), query.Result{Type: query.Reachability, Reachable: true}},
	} {
		if got, err := run(&sc, f, g, c.q); err != nil || got != c.want {
			t.Errorf("%+v: got %+v, %v; want %+v", c.q, got, err, c.want)
		}
		f.fetches, f.failAt = 0, 2
		if _, err := run(&sc, f, g, c.q); !errors.Is(err, errStorage) || f.fetches != 2 {
			t.Errorf("%+v with fetch 2 failing: err = %v after %d fetches", c.q, err, f.fetches)
		}
		f.failAt = 0
	}
}

// randomGraph builds a labelled directed graph with a few tombstoned ids;
// edges stay inside windows of 40 ids, so it has dense regions and many
// unreachable pairs.
func randomGraph(rng *xrand.Source, n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode([]string{"", "a", "b", "c"}[rng.Intn(4)])
	}
	for i := 0; i < 3*n; i++ {
		u := rng.Intn(n)
		if v := u/40*40 + rng.Intn(40); v < n && u != v {
			g.AddEdgeFast(graph.NodeID(u), graph.NodeID(v))
		}
	}
	for i := 0; i < n/25; i++ {
		_ = g.RemoveNode(graph.NodeID(rng.Intn(n))) // a repeat draw is already gone
	}
	return g
}

func TestKernelMatchesOracleRandom(t *testing.T) {
	rng := xrand.New(20260926)
	dirs := []graph.Direction{graph.Out, graph.In, graph.Both}
	restarts := []float64{0, 0.15, 0.5, 1}
	labels := []string{"", "", "a", "c", "nowhere"}
	for round := 0; round < 4; round++ {
		n := 120 + 80*round
		g := randomGraph(rng, n)
		f := newMemFetcher(t, g)
		var sc Scratch // 600 queries: the one-byte visit generation wraps twice
		for i := 0; i < 600; i++ {
			node := graph.NodeID(rng.Intn(n + 5)) // a few ids past the graph
			hops, dir := rng.Intn(6), dirs[rng.Intn(len(dirs))]
			var q query.Query
			switch rng.Intn(3) {
			case 0:
				q = agg(node, hops, dir, labels[rng.Intn(len(labels))])
			case 1:
				q = walk(node, hops, dir, restarts[rng.Intn(len(restarts))], int64(rng.Intn(1<<30)))
			case 2:
				q = reach(node, graph.NodeID(rng.Intn(n)), hops)
				if q.Node == q.Target && !g.Exists(q.Node) {
					// The one case the kernel and the oracle answer
					// differently (reachable vs not): the processors reject
					// it and the generators never produce it.
					continue
				}
			}
			f.expanded = 0
			got, err := run(&sc, f, g, q)
			if want := query.Answer(g, q); err != nil || got != want {
				t.Fatalf("round %d query %d (%+v): got %+v, %v; oracle %+v", round, i, q, got, err, want)
			}
			// An unfiltered aggregation bills each node it discovers once.
			if q.Type == query.NeighborAgg && q.CountLabel == "" && f.expanded != got.Count {
				t.Fatalf("round %d query %d (%+v): Expanded saw %d nodes, counted %d", round, i, q, f.expanded, got.Count)
			}
		}
	}
}

func TestKernelWarmScratchDoesNotAllocate(t *testing.T) {
	g := randomGraph(xrand.New(5), 400)
	f := newMemFetcher(t, g)
	var sc Scratch
	for _, q := range []query.Query{agg(21, 3, graph.Both, ""), walk(21, 20, graph.Both, 0.1, 8), reach(21, 33, 5)} {
		once := func() {
			if _, err := run(&sc, f, g, q); err != nil {
				t.Fatal(err)
			}
		}
		once() // warm: grow the visit windows and frontier buffers
		if allocs := testing.AllocsPerRun(50, once); allocs != 0 {
			t.Errorf("%v: %v allocs per run on a warm scratch, want 0", q.Type, allocs)
		}
	}
	if sc.Retained() == 0 {
		t.Fatal("a used scratch reports nothing retained")
	}
}

// TestVisitSet walks one set through on-demand growth of the dense window,
// the spill past denseVisitedLimit and a generation wrap.
func TestVisitSet(t *testing.T) {
	var v visitSet
	v.reset()
	if !v.visit(3) || v.visit(3) || len(v.dense) != minDenseVisited {
		t.Fatalf("first visits wrong, or dense window %d is not the %d floor", len(v.dense), minDenseVisited)
	}
	if !v.visit(5000) || len(v.dense) <= 5000 {
		t.Fatalf("dense window = %d, does not cover id 5000", len(v.dense))
	}
	if !v.seen(3) || !v.seen(5000) || v.seen(4999) || v.seen(1<<20) {
		t.Fatal("marks lost or invented across growth")
	}
	if !v.visit(denseVisitedLimit-1) || len(v.dense) != denseVisitedLimit || len(v.sparse) != 0 {
		t.Fatalf("dense %d / sparse %d after the last dense id, want %d / 0", len(v.dense), len(v.sparse), denseVisitedLimit)
	}
	const far = denseVisitedLimit + 7
	if v.seen(far) || !v.visit(far) || v.visit(far) || !v.seen(far) || !v.visit(denseVisitedLimit) {
		t.Fatal("ids at or past the limit not tracked")
	}
	if len(v.dense) != denseVisitedLimit || len(v.sparse) != 2 {
		t.Fatalf("dense %d / sparse %d, want the far ids in the sparse map", len(v.dense), len(v.sparse))
	}
	v.reset()
	if v.gen != 2 || v.seen(3) || v.seen(5000) || v.seen(far) || !v.visit(far) {
		t.Fatal("marks survived a reset")
	}
	// 254 queries on, the counter wraps back to 1: generation 1's marks
	// must not read as visited again.
	v.gen = ^uint8(0)
	v.visit(6)
	v.reset()
	if v.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", v.gen)
	}
	for _, id := range []graph.NodeID{3, 6, 5000, denseVisitedLimit, far} {
		if v.seen(id) || !v.visit(id) {
			t.Fatalf("stale mark on id %d survived the wrap", id)
		}
	}
}
