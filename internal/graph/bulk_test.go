package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// run is one Begin plus its Edges.
type run struct {
	src NodeID
	dst []NodeID
}

// replay is the oracle: the graph a sequential AddNode/AddEdgeFast load of
// the same runs yields.
func replay(runs []run) *Graph {
	g := New()
	ensure := func(id NodeID) {
		for g.MaxNodeID() <= id {
			g.AddNode("")
		}
	}
	for _, r := range runs {
		ensure(r.src)
		for _, d := range r.dst {
			ensure(d)
			g.AddEdgeFast(r.src, d)
		}
	}
	return g
}

func bulk(runs []run) *Graph {
	var b Bulk
	for _, r := range runs {
		b.Begin(r.src)
		for _, d := range r.dst {
			b.Edge(d)
		}
	}
	return b.Graph()
}

func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.MaxNodeID() != want.MaxNodeID() || got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("got %d ids / %d nodes / %d edges, want %d / %d / %d", got.MaxNodeID(), got.NumNodes(),
			got.NumEdges(), want.MaxNodeID(), want.NumNodes(), want.NumEdges())
	}
	for u := NodeID(0); u < want.MaxNodeID(); u++ {
		if got.Exists(u) != want.Exists(u) {
			t.Fatalf("node %d: exists %v, want %v", u, got.Exists(u), want.Exists(u))
		}
		if !slices.Equal(got.OutEdges(u), want.OutEdges(u)) {
			t.Fatalf("node %d: out %v, want %v", u, got.OutEdges(u), want.OutEdges(u))
		}
		// The id index first: on a Bulk's graph it is then laid out from the
		// runs, before the in-view is.
		for _, g := range []*Graph{got, want} {
			if ids := g.InIDs(u); !slices.Equal(ids, edgeIDs(want.InEdges(u))) {
				t.Fatalf("node %d: in ids %v, want those of %v", u, ids, want.InEdges(u))
			}
		}
		if !slices.Equal(got.InEdges(u), want.InEdges(u)) {
			t.Fatalf("node %d: in %v, want %v", u, got.InEdges(u), want.InEdges(u))
		}
	}
}

// edgeIDs is what InIDs must hold for a node whose in-edges are es.
func edgeIDs(es []Edge) []NodeID {
	ids := make([]NodeID, len(es))
	for i, e := range es {
		ids[i] = e.To
	}
	return ids
}

// randomRuns draws runs the way a hostile file would order them: sources
// in any order and sometimes twice, empty runs, self-loops, parallel edges,
// ids that only ever appear as targets.
func randomRuns(rng *rand.Rand, lines, ids, maxDeg int) []run {
	runs := make([]run, lines)
	for i := range runs {
		r := run{src: NodeID(rng.Intn(ids))}
		if i > 0 && rng.Intn(8) == 0 {
			r.src = runs[rng.Intn(i)].src
		}
		for d := rng.Intn(maxDeg + 1); d > 0; d-- {
			switch rng.Intn(10) {
			case 0:
				r.dst = append(r.dst, r.src)
			case 1:
				if len(r.dst) > 0 {
					r.dst = append(r.dst, r.dst[len(r.dst)-1])
					break
				}
				fallthrough
			default:
				r.dst = append(r.dst, NodeID(rng.Intn(ids+ids/4)))
			}
		}
		runs[i] = r
	}
	return runs
}

func TestBulkMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runs := randomRuns(rng, 1+rng.Intn(400), 1+rng.Intn(300), rng.Intn(12))
		sameGraph(t, bulk(runs), replay(runs))
	}
	sameGraph(t, bulk(nil), replay(nil))
}

// Runs that fill a chunk exactly, overflow it mid-run, and exceed any chunk
// on their own take the spill path.
func TestBulkRunsAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	targets := func(n int) []NodeID {
		d := make([]NodeID, n)
		for i := range d {
			d[i] = NodeID(rng.Intn(500))
		}
		return d
	}
	runs := []run{
		{src: 7, dst: targets(bulkChunk)},       // fills the first chunk to the brim
		{src: 3, dst: targets(10)},              // starts at a full chunk
		{src: 9, dst: targets(bulkChunk - 5)},   // overflows mid-run, moves whole
		{src: 1, dst: targets(3*bulkChunk + 1)}, // longer than any chunk
		{src: 7, dst: targets(4)},               // a source seen before
		{src: 2},
		{src: 4, dst: targets(bulkChunk)},
	}
	sameGraph(t, bulk(runs), replay(runs))
}

// A node's adjacency sits between its neighbours' in a shared chunk or
// arena. Mutating it must never reach theirs.
func TestBulkAdjacencyIsNotAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	runs := randomRuns(rng, 300, 120, 8)
	got, want := bulk(runs), replay(runs)
	for step := 0; step < 2000; step++ {
		u, v := NodeID(rng.Intn(int(want.MaxNodeID()))), NodeID(rng.Intn(int(want.MaxNodeID())))
		switch rng.Intn(7) {
		case 0, 1:
			if e1, e2 := got.AddEdge(u, v, "x"), want.AddEdge(u, v, "x"); (e1 == nil) != (e2 == nil) {
				t.Fatalf("AddEdge(%d,%d): %v vs %v", u, v, e1, e2)
			}
		case 2, 3:
			ok1, e1 := got.EnsureEdge(u, v, NoLabel)
			ok2, e2 := want.EnsureEdge(u, v, NoLabel)
			if ok1 != ok2 || (e1 == nil) != (e2 == nil) {
				t.Fatalf("EnsureEdge(%d,%d): %v,%v vs %v,%v", u, v, ok1, e1, ok2, e2)
			}
		case 4, 5:
			if got.RemoveEdge(u, v) != want.RemoveEdge(u, v) {
				t.Fatalf("RemoveEdge(%d,%d) disagrees", u, v)
			}
		default:
			if step%10 == 0 { // rarely, or the graph empties out
				if e1, e2 := got.RemoveNode(u), want.RemoveNode(u); (e1 == nil) != (e2 == nil) {
					t.Fatalf("RemoveNode(%d): %v vs %v", u, e1, e2)
				}
			}
		}
		if step%50 == 0 {
			sameGraph(t, got, want)
		}
	}
	sameGraph(t, got, want)
}

// A Bulk's graph keeps its runs instead of an in-view until the first read
// of an in-edge, which builds the view once — the replay's, list for list —
// and lets the runs go. Later reads hand out the same lists and allocate
// nothing.
func TestBulkBuildsInViewOnFirstRead(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	runs := randomRuns(rng, 300, 200, 9)
	got, want := bulk(runs), replay(runs)
	if got.pending == nil || got.in != nil {
		t.Fatal("the in-view was built before anything read it")
	}
	var v NodeID
	for want.InDegree(v) == 0 {
		v++
	}
	first := got.InEdges(v)
	if got.pending != nil {
		t.Fatal("the first InEdges left the runs held")
	}
	if !slices.Equal(first, want.InEdges(v)) {
		t.Fatalf("node %d: in %v, want %v", v, first, want.InEdges(v))
	}
	sameGraph(t, got, want)
	if again := got.InEdges(v); &again[0] != &first[0] {
		t.Fatal("a second read rebuilt the in-view")
	}
	if n := testing.AllocsPerRun(100, func() { got.InEdges(v) }); n != 0 {
		t.Fatalf("InEdges allocates %.1f times per call", n)
	}
}

// byDegree is the live ids by total degree, highest first, ties by id: a
// reader of every in-list at once.
func byDegree(g *Graph) []NodeID {
	ids := g.Nodes()
	in := g.inView()
	slices.SortStableFunc(ids, func(a, b NodeID) int {
		return (len(g.out[b]) + len(in[b])) - (len(g.out[a]) + len(in[a]))
	})
	return ids
}

// A Graph is safe for concurrent readers, and a Bulk's graph must stay so
// while its first readers race to build the in-view and the id index: each
// reader sees the replay's answer (run it under -race).
func TestBulkConcurrentFirstReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	runs := randomRuns(rng, 400, 250, 10)
	want := replay(runs)
	n := want.MaxNodeID()
	wantOrder := byDegree(want)
	neighbours := func(g *Graph, u NodeID) []NodeID {
		var ns []NodeID
		g.visitNeighbors(u, Both, func(v NodeID) { ns = append(ns, v) })
		return ns
	}
	readers := []func(g *Graph) error{
		func(g *Graph) error {
			for u := NodeID(0); u < n; u++ {
				if !slices.Equal(g.InEdges(u), want.InEdges(u)) {
					return fmt.Errorf("InEdges(%d) = %v, want %v", u, g.InEdges(u), want.InEdges(u))
				}
			}
			return nil
		},
		func(g *Graph) error {
			for u := NodeID(0); u < n; u++ {
				if g.Degree(u) != want.Degree(u) {
					return fmt.Errorf("Degree(%d) = %d, want %d", u, g.Degree(u), want.Degree(u))
				}
			}
			return nil
		},
		func(g *Graph) error {
			for u := NodeID(0); u < n; u++ {
				if got, w := neighbours(g, u), neighbours(want, u); !slices.Equal(got, w) {
					return fmt.Errorf("visitNeighbors(%d, Both) = %v, want %v", u, got, w)
				}
			}
			return nil
		},
		func(g *Graph) error {
			for u := NodeID(0); u < n; u++ {
				for v := NodeID(0); v < n; v += 7 {
					if g.HasEdge(u, v) != want.HasEdge(u, v) {
						return fmt.Errorf("HasEdge(%d, %d) = %v", u, v, g.HasEdge(u, v))
					}
				}
			}
			return nil
		},
		func(g *Graph) error {
			if got := byDegree(g); !slices.Equal(got, wantOrder) {
				return fmt.Errorf("degree order %v, want %v", got, wantOrder)
			}
			return nil
		},
		func(g *Graph) error {
			for u := NodeID(0); u < n; u++ {
				if got, w := g.InIDs(u), edgeIDs(want.InEdges(u)); !slices.Equal(got, w) {
					return fmt.Errorf("InIDs(%d) = %v, want %v", u, got, w)
				}
			}
			return nil
		},
	}
	for round := 0; round < 20; round++ {
		g := bulk(runs)
		errs := make(chan error, 2*len(readers))
		var wg sync.WaitGroup
		for i := range 2 * len(readers) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- readers[(i+round)%len(readers)](g)
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

// Reading the id index of a fresh Bulk's graph lays out the index alone,
// from the runs: no in-view, and the runs stay for the in-view's first
// reader, which builds the replay's. The index survives that build, and
// later reads allocate nothing.
func TestBulkBuildsInIDsWithoutInView(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	runs := randomRuns(rng, 300, 200, 9)
	got, want := bulk(runs), replay(runs)
	var v NodeID
	for want.InDegree(v) == 0 {
		v++
	}
	first := got.InIDs(v)
	if got.in != nil || got.pending == nil {
		t.Fatal("reading the id index laid the in-view out or let the runs go")
	}
	for u := NodeID(0); u < want.MaxNodeID(); u++ {
		if ids := got.InIDs(u); !slices.Equal(ids, edgeIDs(want.InEdges(u))) {
			t.Fatalf("node %d: in ids %v, want those of %v", u, ids, want.InEdges(u))
		}
	}
	if got.in != nil {
		t.Fatal("reading every node's id list laid the in-view out")
	}
	if n := testing.AllocsPerRun(100, func() { got.InIDs(v) }); n != 0 {
		t.Fatalf("InIDs allocates %.1f times per call", n)
	}
	sameGraph(t, got, want)
	if again := got.InIDs(v); &again[0] != &first[0] {
		t.Fatal("building the in-view rebuilt the id index")
	}
	if got.InIDs(want.MaxNodeID()) != nil {
		t.Fatal("InIDs of an id past the graph is not nil")
	}
}

// Every mutator drops the id index, so the next read rebuilds it from the
// adjacency as changed: after each one, on a Bulk's graph and on one New
// built, every node's index equals its in-edges' sources.
func TestInIDsFollowMutators(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	runs := randomRuns(rng, 200, 120, 8)
	check := func(t *testing.T, g *Graph, after string) {
		t.Helper()
		for u := NodeID(0); u <= g.MaxNodeID(); u++ {
			if ids, w := g.InIDs(u), edgeIDs(g.InEdges(u)); !slices.Equal(ids, w) || (len(ids) == 0) != (g.InDegree(u) == 0) {
				t.Fatalf("after %s, node %d: in ids %v, in-edges %v", after, u, ids, g.InEdges(u))
			}
		}
	}
	for name, g := range map[string]*Graph{"bulk": bulk(runs), "new": replay(runs)} {
		t.Run(name, func(t *testing.T) {
			check(t, g, "nothing")
			a := g.AddNode("a")
			check(t, g, "AddNode")
			b := g.AddNodes(3)
			check(t, g, "AddNodes")
			far := g.MaxNodeID() + 2
			g.UpsertNode(far, NoLabel)
			check(t, g, "UpsertNode")
			if _, err := g.EnsureEdge(a, 5, g.InternLabel("x")); err != nil {
				t.Fatal(err)
			}
			check(t, g, "EnsureEdge")
			if err := g.AddEdge(far, a, "y"); err != nil {
				t.Fatal(err)
			}
			check(t, g, "AddEdge")
			g.AddEdgeFast(b, far)
			check(t, g, "AddEdgeFast")
			if !g.RemoveEdge(far, a) {
				t.Fatal("RemoveEdge found no edge")
			}
			check(t, g, "RemoveEdge")
			var hub NodeID
			for u := range g.MaxNodeID() {
				if g.InDegree(u) > g.InDegree(hub) {
					hub = u
				}
			}
			if err := g.RemoveNode(hub); err != nil {
				t.Fatal(err)
			}
			check(t, g, "RemoveNode")
		})
	}
}
