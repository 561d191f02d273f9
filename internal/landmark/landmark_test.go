package landmark

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestSelectPicksHighDegreeFirst(t *testing.T) {
	g := graph.New()
	g.AddNodes(10)
	// Node 0 is a hub.
	for i := 1; i < 10; i++ {
		g.AddEdgeFast(0, graph.NodeID(i))
	}
	g.AddEdgeFast(1, 2)
	ls := Select(g, 1, 0)
	if len(ls) != 1 || ls[0] != 0 {
		t.Fatalf("Select = %v, want [0]", ls)
	}
}

// The degree order counts in-edges through the id index; a removal drops
// the index, so the order after it counts only the edges left.
func TestNodesByDegreeDesc(t *testing.T) {
	g := graph.New()
	g.AddNodes(4)
	// Node 2 gets degree 3, node 0 degree 2, node 1 degree 2, node 3 degree 1.
	g.AddEdgeFast(2, 0)
	g.AddEdgeFast(2, 1)
	g.AddEdgeFast(0, 2) // bumps 2 to degree 3, 0 to 2
	g.AddEdgeFast(3, 1) // 1 to degree 2, 3 to 1
	order := nodesByDegreeDesc(g)
	if order[0] != 2 {
		t.Fatalf("highest-degree node = %d, want 2 (order %v)", order[0], order)
	}
	if order[len(order)-1] != 3 {
		t.Fatalf("lowest-degree node = %d, want 3 (order %v)", order[len(order)-1], order)
	}
	// Ties (0 and 1, both degree 2) break by id.
	if order[1] != 0 || order[2] != 1 {
		t.Fatalf("tie-break order = %v, want [2 0 1 3]", order)
	}
	// A removed node is left out, and its edges no longer count.
	if err := g.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	if order := nodesByDegreeDesc(g); !slices.Equal(order, []graph.NodeID{2, 0, 1}) {
		t.Fatalf("order after removing node 3 = %v, want [2 0 1]", order)
	}
}

func TestSelectHonoursSeparation(t *testing.T) {
	// Hub A (node 0, degree 14), its adjacent satellite (node 2, degree 8),
	// and hub B (node 1, degree 7) three hops away from A.
	g := graph.New()
	g.AddNodes(72)
	for i := 30; i < 42; i++ {
		g.AddEdgeFast(0, graph.NodeID(i)) // hub A fan-out
	}
	for i := 50; i < 57; i++ {
		g.AddEdgeFast(2, graph.NodeID(i)) // satellite fan-out
	}
	g.AddEdgeFast(2, 0) // satellite is 1 hop from hub A
	for i := 60; i < 66; i++ {
		g.AddEdgeFast(1, graph.NodeID(i)) // hub B fan-out
	}
	// Path 0 - 70 - 71 - 1 makes dist(A, B) = 3 in the bi-directed view.
	g.AddEdgeFast(0, 70)
	g.AddEdgeFast(70, 71)
	g.AddEdgeFast(71, 1)

	// With no separation requirement, degree order wins: A then satellite.
	ls0 := Select(g, 2, 0)
	if len(ls0) != 2 || ls0[0] != 0 || ls0[1] != 2 {
		t.Fatalf("Select(minSep=0) = %v, want [0 2]", ls0)
	}
	// With 3-hop separation the satellite is discarded for hub B.
	ls := Select(g, 2, 3)
	if len(ls) != 2 || ls[0] != 0 || ls[1] != 1 {
		t.Fatalf("Select(minSep=3) = %v, want [0 1]", ls)
	}
}

func TestSelectSkipsIsolated(t *testing.T) {
	g := graph.New()
	g.AddNodes(5)
	g.AddEdgeFast(0, 1)
	ls := Select(g, 4, 0)
	if len(ls) != 2 {
		t.Fatalf("Select = %v, want only the two connected nodes", ls)
	}
}

func TestSelectZeroCount(t *testing.T) {
	if ls := Select(gen.Ring(5), 0, 0); ls != nil {
		t.Fatalf("Select(count=0) = %v", ls)
	}
}

func TestBuildIndexDistances(t *testing.T) {
	g := gen.Grid(6, 6)
	ls := []graph.NodeID{0, 35} // opposite corners
	idx := BuildIndex(g, ls, 2)
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
	if idx.NumLandmarks() != 2 || idx.NumNodes() != 36 {
		t.Fatalf("index shape: L=%d n=%d", idx.NumLandmarks(), idx.NumNodes())
	}
	// Grid distance from corner 0 to node (x,y) is x+y.
	if d := idx.Dist(0, 14); d != 2+2 {
		t.Fatalf("Dist(corner, (2,2)) = %d, want 4", d)
	}
	if d := idx.LandmarkDist(0, 1); d != 10 {
		t.Fatalf("corner-to-corner = %d, want 10", d)
	}
	if d := idx.Dist(0, 99); d != Inf {
		t.Fatalf("out-of-range Dist = %d, want Inf", d)
	}
	if d := idx.Dist(9, 0); d != Inf {
		t.Fatalf("bad landmark index Dist = %d, want Inf", d)
	}
}

func TestBuildIndexUnreachable(t *testing.T) {
	g := graph.New()
	g.AddNodes(4)
	g.AddEdgeFast(0, 1) // component {0,1}; nodes 2,3 isolated
	idx := BuildIndex(g, []graph.NodeID{0}, 1)
	if idx.Dist(0, 2) != Inf {
		t.Fatalf("distance to disconnected node = %d, want Inf", idx.Dist(0, 2))
	}
	if idx.Dist(0, 1) != 1 {
		t.Fatalf("distance to neighbour = %d", idx.Dist(0, 1))
	}
}

// TestBoundProperty checks Eq 2 against true distances on a random graph.
func TestBoundProperty(t *testing.T) {
	rng := xrand.New(3)
	g := gen.ErdosRenyi(120, 480, 7)
	ls := Select(g, 8, 2)
	idx := BuildIndex(g, ls, 0)
	for trial := 0; trial < 200; trial++ {
		u := graph.NodeID(rng.Intn(120))
		v := graph.NodeID(rng.Intn(120))
		lo, hi, ok := idx.Bound(u, v)
		truth := g.HopDistance(u, v, -1, graph.Both)
		if truth == graph.Unreachable {
			continue
		}
		if !ok {
			continue
		}
		if uint16(truth) < lo || uint16(truth) > hi {
			t.Fatalf("bound violated: d(%d,%d)=%d not in [%d,%d]", u, v, truth, lo, hi)
		}
	}
}

func TestStorageBytes(t *testing.T) {
	g := gen.Ring(100)
	idx := BuildIndex(g, []graph.NodeID{0, 50}, 0)
	if got := idx.StorageBytes(); got != 2*100*2 {
		t.Fatalf("StorageBytes = %d, want 400", got)
	}
}

func TestIncorporateNode(t *testing.T) {
	g := gen.Ring(20)
	idx := BuildIndex(g, []graph.NodeID{0}, 0)
	// Add a node hanging off node 5.
	u := g.AddNode("")
	g.AddEdgeFast(5, u)
	idx.IncorporateNode(g, u)
	want := idx.Dist(0, 5) + 1
	if got := idx.Dist(0, u); got != want {
		t.Fatalf("Dist(0, new) = %d, want %d", got, want)
	}
}

func TestIncorporateIsolatedNode(t *testing.T) {
	g := gen.Ring(10)
	idx := BuildIndex(g, []graph.NodeID{0}, 0)
	u := g.AddNode("")
	idx.IncorporateNode(g, u)
	if got := idx.Dist(0, u); got != Inf {
		t.Fatalf("Dist to isolated new node = %d, want Inf", got)
	}
}

func TestRefreshAroundShortcut(t *testing.T) {
	// Path 0-1-...-9, landmark at 0. Adding shortcut 0->9 shortens node 9
	// and its neighbourhood.
	g := graph.New()
	g.AddNodes(10)
	for i := 0; i < 9; i++ {
		g.AddEdgeFast(graph.NodeID(i), graph.NodeID(i+1))
	}
	idx := BuildIndex(g, []graph.NodeID{0}, 0)
	if idx.Dist(0, 9) != 9 {
		t.Fatalf("pre-update Dist(0,9) = %d", idx.Dist(0, 9))
	}
	g.AddEdgeFast(0, 9)
	region := idx.RefreshAround(g, 9, 2)
	// The relaxed region is everything within 2 hops of 9, 9 first.
	if want := []graph.NodeID{9, 8, 0, 7, 1}; !reflect.DeepEqual(region, want) {
		t.Fatalf("RefreshAround relaxed %v, want %v", region, want)
	}
	if got := idx.Dist(0, 9); got != 1 {
		t.Fatalf("post-update Dist(0,9) = %d, want 1", got)
	}
	// 2-hop refresh also corrects node 8 (via 9).
	if got := idx.Dist(0, 8); got != 2 {
		t.Fatalf("post-update Dist(0,8) = %d, want 2", got)
	}
}

func TestAssignPivotsSpread(t *testing.T) {
	// 3 clusters of hubs; 3 processors must get pivots in distinct clusters.
	g := gen.Grid(12, 3) // 36 nodes; landmarks at columns 0, 6, 11
	ls := []graph.NodeID{0, 6, 11, 1, 7}
	idx := BuildIndex(g, ls, 0)
	a := Assign(idx, 3)
	if len(a.Pivots) != 3 {
		t.Fatalf("pivots = %v", a.Pivots)
	}
	// Landmark 3 (node 1) must co-locate with landmark 0 (node 0); landmark
	// 4 (node 7) with landmark 1 (node 6).
	if a.ProcOf[3] != a.ProcOf[0] {
		t.Fatalf("landmark at node 1 assigned to proc %d, hub at node 0 to %d", a.ProcOf[3], a.ProcOf[0])
	}
	if a.ProcOf[4] != a.ProcOf[1] {
		t.Fatalf("landmark at node 7 assigned to proc %d, hub at node 6 to %d", a.ProcOf[4], a.ProcOf[1])
	}
}

func TestAssignDistTable(t *testing.T) {
	g := gen.Grid(10, 1) // path of 10 nodes
	ls := []graph.NodeID{0, 9}
	idx := BuildIndex(g, ls, 0)
	a := Assign(idx, 2)
	if a.Procs() != 2 {
		t.Fatalf("Procs = %d", a.Procs())
	}
	// d(u, p) = distance to that end of the path.
	pLeft := a.ProcOf[0]
	pRight := a.ProcOf[1]
	if pLeft == pRight {
		t.Fatalf("both landmarks on one processor: %v", a.ProcOf)
	}
	for u := graph.NodeID(0); u < 10; u++ {
		if got, want := a.DistToProc(u, pLeft), uint16(u); got != want {
			t.Fatalf("DistToProc(%d, left) = %d, want %d", u, got, want)
		}
		if got, want := a.DistToProc(u, pRight), uint16(9-u); got != want {
			t.Fatalf("DistToProc(%d, right) = %d, want %d", u, got, want)
		}
	}
	// Nearby nodes have similar distance vectors: routing locality.
	if a.DistToProc(3, pLeft) > a.DistToProc(4, pLeft) {
		t.Fatal("distance table not monotone along the path")
	}
	if a.DistToProc(0, 7) != Inf {
		t.Fatal("out-of-range processor should be Inf")
	}
}

func TestAssignMoreProcsThanLandmarks(t *testing.T) {
	g := gen.Ring(10)
	idx := BuildIndex(g, []graph.NodeID{0, 5}, 0)
	a := Assign(idx, 4)
	if len(a.Pivots) != 2 {
		t.Fatalf("pivots = %v, want 2 (only 2 landmarks)", a.Pivots)
	}
	// Unpivoted processors see Inf everywhere.
	sawInf := false
	for p := 0; p < 4; p++ {
		if a.DistToProc(0, p) == Inf {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatal("expected at least one landmark-less processor with Inf distances")
	}
}

func TestAssignZeroProcs(t *testing.T) {
	g := gen.Ring(4)
	idx := BuildIndex(g, []graph.NodeID{0}, 0)
	a := Assign(idx, 0)
	if a.Procs() != 0 || len(a.Pivots) != 0 {
		t.Fatalf("Assign(0) = %+v", a)
	}
}

func TestSetNodeDistances(t *testing.T) {
	g := gen.Ring(12)
	idx := BuildIndex(g, []graph.NodeID{0, 6}, 0)
	a := Assign(idx, 2)
	u := g.AddNode("")
	g.AddEdgeFast(3, u)
	idx.IncorporateNode(g, u)
	a.SetNodeDistances(idx, u)
	p0 := a.ProcOf[0]
	if got, want := a.DistToProc(u, p0), idx.Dist(0, u); got != want {
		t.Fatalf("DistToProc(new, p0) = %d, want %d", got, want)
	}
	if a.StorageBytes() != int64(13*2)*2 {
		t.Fatalf("StorageBytes = %d", a.StorageBytes())
	}
}

func TestAssignOneProcessor(t *testing.T) {
	g := gen.Ring(8)
	idx := BuildIndex(g, Select(g, 4, 0), 0)
	a := Assign(idx, 1)
	for _, p := range a.ProcOf {
		if p != 0 {
			t.Fatalf("ProcOf = %v, want all zero", a.ProcOf)
		}
	}
}

// BenchmarkBuildIndex times the index build on a skewed graph, on the
// benchmark's 60 k-node WebGraph preset with the networked router's 32
// landmarks, and on a 60 k-node ring, whose 30,000 levels each hold a
// handful of nodes. Each graph is built inside its own sub-benchmark, so
// only the graph being searched is live.
func BenchmarkBuildIndex(b *testing.B) {
	for _, c := range []struct {
		name  string
		graph func() *graph.Graph
		lms   int
	}{
		{"rmat20k", func() *graph.Graph { return gen.RMAT(gen.RMATOptions{Nodes: 20000, Edges: 100000, Seed: 1}) }, 16},
		{"webgraph60k", func() *graph.Graph {
			g, err := gen.Preset(gen.WebGraph, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			return g
		}, 32},
		{"ring60k", func() *graph.Graph { return gen.Ring(60000) }, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := c.graph()
			ls := Select(g, c.lms, 2)
			for b.Loop() {
				BuildIndex(g, ls, 0)
			}
		})
	}
}

// BuildIndex allocates the distance fields it returns, one sweep's words
// and lists, and a goroutine per worker beyond the first — not two buffers
// and a goroutine per landmark.
func TestBuildIndexAllocBudget(t *testing.T) {
	g := gen.LocalWeb(3000, 12, 160, 0.04, 7)
	lms := Select(g, 24, 2)
	for _, workers := range []int{1, 4} {
		allocs := testing.AllocsPerRun(1, func() { BuildIndex(g, lms, workers) })
		budget := float64(len(lms) + 4*workers + 8)
		t.Logf("BuildIndex, %d landmarks, %d workers: %.0f allocations (budget %.0f)", len(lms), workers, allocs, budget)
		if allocs > budget {
			t.Errorf("%d workers: %.0f allocations, budget %.0f", workers, allocs, budget)
		}
	}
}

// TestBuildIndexMatchesBFS holds the multi-source sweep to a separate
// search from each landmark: on skewed, random, fragmented and
// high-diameter graphs, with landmark lists on both sides of a word's 64
// bits that repeat a landmark and name a removed node, every field must
// equal bfsInto's, capped at Inf−1, for every worker count.
func TestBuildIndexMatchesBFS(t *testing.T) {
	web, err := gen.Preset(gen.WebGraph, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	er := gen.ErdosRenyi(2000, 2600, 5)
	island := er.AddNodes(40) // a part no landmark of the rest reaches
	for i := graph.NodeID(1); i < 40; i++ {
		er.AddEdgeFast(island+i-1, island+i)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"webgraph", web},
		{"localweb", gen.LocalWeb(3000, 12, 160, 0.04, 7)},
		{"erdosrenyi", er},
		{"ring", gen.Ring(3000)},
		{"grid", gen.Grid(60, 40)},
		{"path-past-the-cap", gen.Grid(int(Inf)+4000, 1)},
	} {
		g := c.g
		pool := Select(g, 130, 0)
		removed := pool[len(pool)/2]
		if err := g.RemoveNode(removed); err != nil {
			t.Fatal(err)
		}
		pool[1] = pool[0]
		for _, count := range []int{1, 63, 64, 65, 130} {
			lms := slices.Clone(pool[:count])
			if count > 1 {
				lms[count-1] = removed
			}
			var want [][]uint16
			dist, queue := make([]int32, g.MaxNodeID()), []graph.NodeID(nil)
			for _, l := range lms {
				queue = bfsInto(g, l, graph.Both, dist, queue)
				want = append(want, capped(dist))
			}
			for _, workers := range []int{1, 2, 4} {
				idx := BuildIndex(g, lms, workers)
				if !slices.Equal(idx.Landmarks, lms) {
					t.Fatalf("%s, %d landmarks, %d workers: Landmarks = %v", c.name, count, workers, idx.Landmarks)
				}
				if idx.NumNodes() != int(g.MaxNodeID()) {
					t.Fatalf("%s, %d landmarks, %d workers: NumNodes = %d, want %d", c.name, count, workers, idx.NumNodes(), g.MaxNodeID())
				}
				for i := range want {
					for v, d := range want[i] {
						if got := idx.Dist(i, graph.NodeID(v)); got != d {
							t.Fatalf("%s, %d landmarks, %d workers: landmark %d (node %d) at node %d: %d, a separate search says %d",
								c.name, count, workers, i, lms[i], v, got, d)
						}
					}
				}
			}
		}
	}
}

// capped is a bfsInto field in the index's terms: Inf where unreachable,
// and no distance above Inf−1.
func capped(dist []int32) []uint16 {
	row := make([]uint16, len(dist))
	for v, d := range dist {
		switch {
		case d == graph.Unreachable:
			row[v] = Inf
		case d >= int32(Inf):
			row[v] = Inf - 1
		default:
			row[v] = uint16(d)
		}
	}
	return row
}
