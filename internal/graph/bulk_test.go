package graph

import (
	"math/rand"
	"slices"
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
		if !slices.Equal(got.InEdges(u), want.InEdges(u)) {
			t.Fatalf("node %d: in %v, want %v", u, got.InEdges(u), want.InEdges(u))
		}
	}
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
