package graph

import (
	"testing"

	"repro/internal/xrand"
)

// buildPath returns the directed path 0 -> 1 -> 2 -> ... -> n-1.
func buildPath(n int) *Graph {
	g := New()
	g.AddNodes(n)
	for i := 0; i < n-1; i++ {
		g.AddEdgeFast(NodeID(i), NodeID(i+1))
	}
	return g
}

func TestBFSPathDistances(t *testing.T) {
	g := buildPath(6)
	dist := g.BFS(0, Out)
	for i := 0; i < 6; i++ {
		if dist[i] != int32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
	// Backwards the path is unreachable in Out direction.
	dist = g.BFS(5, Out)
	for i := 0; i < 5; i++ {
		if dist[i] != Unreachable {
			t.Fatalf("dist[%d] = %d, want Unreachable", i, dist[i])
		}
	}
	// In direction reverses the reachability.
	dist = g.BFS(5, In)
	for i := 0; i < 6; i++ {
		if dist[i] != int32(5-i) {
			t.Fatalf("In dist[%d] = %d, want %d", i, dist[i], 5-i)
		}
	}
	// Both makes the path symmetric.
	dist = g.BFS(3, Both)
	want := []int32{3, 2, 1, 0, 1, 2}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("Both dist[%d] = %d, want %d", i, dist[i], w)
		}
	}
}

func TestBFSFromMissingNode(t *testing.T) {
	g := buildPath(3)
	dist := g.BFS(99, Out)
	for i, d := range dist {
		if d != Unreachable {
			t.Fatalf("dist[%d] = %d from missing source", i, d)
		}
	}
}

func TestBFSSkipsRemovedNodes(t *testing.T) {
	g := buildPath(5)
	if err := g.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	dist := g.BFS(0, Out)
	if dist[1] != 1 {
		t.Fatalf("dist[1] = %d, want 1", dist[1])
	}
	for _, i := range []int{2, 3, 4} {
		if dist[i] != Unreachable {
			t.Fatalf("dist[%d] = %d, want Unreachable after cut", i, dist[i])
		}
	}
}

func TestBFSBoundedMatchesBFS(t *testing.T) {
	rng := xrand.New(11)
	g := New()
	g.AddNodes(200)
	for i := 0; i < 800; i++ {
		g.AddEdgeFast(NodeID(rng.Intn(200)), NodeID(rng.Intn(200)))
	}
	full := g.BFS(0, Both)
	for _, h := range []int{0, 1, 2, 3} {
		bounded := g.BFSBounded(0, h, Both)
		for v, d := range bounded {
			if full[v] != d {
				t.Fatalf("h=%d: bounded dist[%d]=%d, full=%d", h, v, d, full[v])
			}
			if d > int32(h) {
				t.Fatalf("h=%d: bounded returned node at distance %d", h, d)
			}
		}
		// Every full-BFS node within h must appear.
		for v, d := range full {
			if d != Unreachable && d <= int32(h) {
				if _, ok := bounded[NodeID(v)]; !ok {
					t.Fatalf("h=%d: node %d at distance %d missing from bounded result", h, v, d)
				}
			}
		}
	}
}

func TestKHopNeighborhoodExcludesSource(t *testing.T) {
	g := buildPath(4)
	nb := g.KHopNeighborhood(0, 2, Out)
	if len(nb) != 2 {
		t.Fatalf("2-hop neighbourhood of path head = %v, want 2 nodes", nb)
	}
	for _, v := range nb {
		if v == 0 {
			t.Fatal("neighbourhood contains the source")
		}
	}
}

func TestKHopNeighborhoodDiamondOverlap(t *testing.T) {
	// Topology-aware locality (Figure 4): neighbourhoods of adjacent nodes
	// overlap. 0->1,0->2,1->3,2->3 - N1(0) = {1,2}, N1(1) under Both = {0,3}.
	g := New()
	g.AddNodes(4)
	for _, e := range [][2]NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		g.AddEdgeFast(e[0], e[1])
	}
	n0 := g.KHopNeighborhood(0, 2, Both)
	n1 := g.KHopNeighborhood(1, 2, Both)
	if len(n0) != 3 || len(n1) != 3 {
		t.Fatalf("2-hop sizes = %d, %d, want 3, 3", len(n0), len(n1))
	}
}

func TestHopDistance(t *testing.T) {
	g := buildPath(6)
	cases := []struct {
		src, dst NodeID
		maxHops  int
		dir      Direction
		want     int32
	}{
		{0, 5, -1, Out, 5},
		{0, 5, 5, Out, 5},
		{0, 5, 4, Out, Unreachable}, // bounded too tight
		{5, 0, -1, Out, Unreachable},
		{5, 0, -1, Both, 5},
		{2, 2, -1, Out, 0},
		{2, 2, 0, Out, 0},
		{0, 1, 0, Out, Unreachable},
	}
	for _, c := range cases {
		if got := g.HopDistance(c.src, c.dst, c.maxHops, c.dir); got != c.want {
			t.Errorf("HopDistance(%d,%d,max=%d,%v) = %d, want %d", c.src, c.dst, c.maxHops, c.dir, got, c.want)
		}
	}
}

func TestHopDistanceMissingNodes(t *testing.T) {
	g := buildPath(3)
	if got := g.HopDistance(0, 99, -1, Out); got != Unreachable {
		t.Fatalf("distance to missing node = %d", got)
	}
}

// TestBFSTriangleInequality validates the landmark bound (Eq 2) on a random
// graph: for all u,v and landmark l, |d(u,l)-d(l,v)| <= d(u,v) <= d(u,l)+d(l,v)
// in the bi-directed view (where distance is a metric).
func TestBFSTriangleInequality(t *testing.T) {
	rng := xrand.New(5)
	g := New()
	g.AddNodes(80)
	for i := 0; i < 300; i++ {
		g.AddEdgeFast(NodeID(rng.Intn(80)), NodeID(rng.Intn(80)))
	}
	l := NodeID(0)
	dl := g.BFS(l, Both)
	for trial := 0; trial < 100; trial++ {
		u := NodeID(rng.Intn(80))
		v := NodeID(rng.Intn(80))
		duv := g.HopDistance(u, v, -1, Both)
		if duv == Unreachable || dl[u] == Unreachable || dl[v] == Unreachable {
			continue
		}
		lo := dl[u] - dl[v]
		if lo < 0 {
			lo = -lo
		}
		hi := dl[u] + dl[v]
		if duv < lo || duv > hi {
			t.Fatalf("landmark bound violated: d(%d,%d)=%d not in [%d,%d]", u, v, duv, lo, hi)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := buildPath(4) // 4 nodes, 3 edges
	s := ComputeStats(g)
	if s.Nodes != 4 || s.Edges != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxOutDeg != 1 || s.MaxInDeg != 1 {
		t.Fatalf("degree stats = %+v", s)
	}
	if s.AvgOutDeg != 0.75 {
		t.Fatalf("AvgOutDeg = %v, want 0.75", s.AvgOutDeg)
	}
	if s.AdjListSize == 0 {
		t.Fatal("AdjListSize = 0")
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(New())
	if s.Nodes != 0 || s.Edges != 0 || s.AvgOutDeg != 0 {
		t.Fatalf("stats of empty graph = %+v", s)
	}
}

func TestAvgKHopSize(t *testing.T) {
	g := buildPath(10)
	// Every interior node on a path sees exactly 2 nodes within 1 hop (Both).
	avg := AvgKHopSize(g, 1, 10, Both)
	if avg < 1.5 || avg > 2.0 {
		t.Fatalf("AvgKHopSize = %v, want in [1.5, 2.0]", avg)
	}
	if AvgKHopSize(New(), 2, 5, Both) != 0 {
		t.Fatal("AvgKHopSize of empty graph != 0")
	}
}

func BenchmarkBFS10k(b *testing.B) {
	rng := xrand.New(1)
	g := New()
	g.AddNodes(10000)
	for i := 0; i < 50000; i++ {
		g.AddEdgeFast(NodeID(rng.Intn(10000)), NodeID(rng.Intn(10000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(NodeID(i%10000), Both)
	}
}

// BFS is BFSInto into a fresh distance slice, the tests' search.
func (g *Graph) BFS(src NodeID, dir Direction) []int32 {
	dist := make([]int32, g.MaxNodeID())
	g.BFSInto(src, dir, dist, nil)
	return dist
}

// BFSInto computes hop distances from src to every node, following dir
// edges, into dist, of length MaxNodeID(): indexed by NodeID, with
// Unreachable for nodes the search cannot reach (including tombstoned ids).
// queue is scratch whose contents do not matter, returned (grown if it had
// to be) for the next call. With a queue of capacity MaxNodeID() a search
// allocates nothing.
//
// It is the tests' reference search: one source, a plain queue.
func (g *Graph) BFSInto(src NodeID, dir Direction, dist []int32, queue []NodeID) []NodeID {
	for i := range dist {
		dist[i] = Unreachable
	}
	if !g.Exists(src) {
		return queue
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	// The head is an index, not a re-slice: queue[1:] gives up the front of
	// the backing array, and every append past its shrunken end reallocates.
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		g.visitNeighbors(u, dir, func(v NodeID) {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		})
	}
	return queue
}
