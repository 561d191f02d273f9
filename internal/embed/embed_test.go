package embed

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/xrand"
)

func buildEmbedding(t *testing.T, g *graph.Graph, nLandmarks, dims int) (*landmark.Index, *Embedding) {
	t.Helper()
	ls := landmark.Select(g, nLandmarks, 1)
	if len(ls) < 2 {
		t.Fatalf("only %d landmarks selected", len(ls))
	}
	idx := landmark.BuildIndex(g, ls, 0)
	e, err := Build(g, idx, Options{Dimensions: dims, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return idx, e
}

func TestBuildGridEmbedding(t *testing.T) {
	g := gen.Grid(12, 12)
	idx, e := buildEmbedding(t, g, 12, 4)
	if e.NumNodes() != 144 || e.D != 4 {
		t.Fatalf("embedding shape: n=%d D=%d", e.NumNodes(), e.D)
	}
	// Landmarks sit exactly at their anchors: pairwise landmark euclidean
	// distances approximate hop distances within reason.
	var errSum float64
	var terms int
	for i := 0; i < idx.NumLandmarks(); i++ {
		for j := i + 1; j < idx.NumLandmarks(); j++ {
			d := idx.LandmarkDist(i, j)
			if d == landmark.Inf || d == 0 {
				continue
			}
			eu := Euclidean(e.Coords(idx.Landmarks[i]), e.Coords(idx.Landmarks[j]))
			errSum += math.Abs(float64(d)-eu) / float64(d)
			terms++
		}
	}
	if terms == 0 {
		t.Fatal("no landmark pairs measured")
	}
	if avg := errSum / float64(terms); avg > 0.5 {
		t.Fatalf("landmark pairwise relative error = %v, want < 0.5", avg)
	}
}

func TestEmbeddingPreservesNearVsFar(t *testing.T) {
	// The routing property that matters: nearby nodes embed closer than
	// far-apart nodes, on average.
	g := gen.Grid(12, 12)
	_, e := buildEmbedding(t, g, 12, 4)
	rng := xrand.New(9)
	var nearSum, farSum float64
	var n int
	for trial := 0; trial < 60; trial++ {
		u := graph.NodeID(rng.Intn(144))
		near := g.KHopNeighborhood(u, 1, graph.Both)
		if len(near) == 0 {
			continue
		}
		v := near[rng.Intn(len(near))]
		// A node ~10+ hops away.
		far := graph.NodeID((int(u) + 72 + rng.Intn(10)) % 144)
		if truth := g.HopDistance(u, far, -1, graph.Both); truth < 6 {
			continue
		}
		nearSum += Euclidean(e.Coords(u), e.Coords(v))
		farSum += Euclidean(e.Coords(u), e.Coords(far))
		n++
	}
	if n < 10 {
		t.Fatalf("too few samples: %d", n)
	}
	if nearSum/float64(n) >= farSum/float64(n) {
		t.Fatalf("embedding does not separate near (%v) from far (%v)", nearSum/float64(n), farSum/float64(n))
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(150, 600, 3)
	ls := landmark.Select(g, 8, 1)
	idx := landmark.BuildIndex(g, ls, 0)
	a, err := Build(g, idx, Options{Dimensions: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, idx, Options{Dimensions: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.NodeID(0); int(u) < a.NumNodes(); u++ {
		ca, cb := a.Coords(u), b.Coords(u)
		for j := range ca {
			if ca[j] != cb[j] {
				t.Fatalf("node %d dim %d: %v != %v (non-deterministic build)", u, j, ca[j], cb[j])
			}
		}
	}
}

func TestBuildNeedsTwoLandmarks(t *testing.T) {
	g := gen.Ring(10)
	idx := landmark.BuildIndex(g, []graph.NodeID{0}, 0)
	if _, err := Build(g, idx, Options{Dimensions: 3}); err == nil {
		t.Fatal("Build accepted a single landmark")
	}
}

func TestMoreDimensionsNoWorse(t *testing.T) {
	// Figure 12(a): relative error shrinks (or at least does not blow up)
	// with added dimensions.
	g := gen.BarabasiAlbert(400, 4, 5)
	ls := landmark.Select(g, 10, 1)
	idx := landmark.BuildIndex(g, ls, 0)
	e2, err := Build(g, idx, Options{Dimensions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e10, err := Build(g, idx, Options{Dimensions: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2 := MeasureRelativeError(g, e2, 150, 2, 99)
	r10 := MeasureRelativeError(g, e10, 150, 2, 99)
	if r10 > r2*1.25 {
		t.Fatalf("10-D error %v much worse than 2-D error %v", r10, r2)
	}
}

func TestMeasureLandmarkFitImprovesWithDimensions(t *testing.T) {
	// Figure 12(a)'s mechanism: the Eq 4 objective fits better in higher
	// dimensions.
	g := gen.LocalWeb(1500, 8, 80, 0.01, 3)
	ls := landmark.Select(g, 10, 1)
	idx := landmark.BuildIndex(g, ls, 0)
	fit := func(d int) float64 {
		e, err := Build(g, idx, Options{Dimensions: d, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return MeasureLandmarkFit(idx, e, 200, 5)
	}
	f2, f10 := fit(2), fit(10)
	if f10 >= f2 {
		t.Fatalf("10-D fit error %v not better than 2-D %v", f10, f2)
	}
	if f2 <= 0 || f10 <= 0 {
		t.Fatalf("fit errors degenerate: %v, %v", f2, f10)
	}
}

func TestMeasureLandmarkFitEmpty(t *testing.T) {
	e := &Embedding{D: 3}
	idx := landmark.BuildIndex(gen.Ring(4), nil, 1)
	if got := MeasureLandmarkFit(idx, e, 10, 1); got != 0 {
		t.Fatalf("fit on empty embedding = %v", got)
	}
}

func TestMeasureRelativeErrorDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(100, 500, 2)
	_, e := buildEmbedding(t, g, 6, 3)
	a := MeasureRelativeError(g, e, 50, 2, 4)
	b := MeasureRelativeError(g, e, 50, 2, 4)
	if a != b {
		t.Fatalf("non-deterministic measurement: %v != %v", a, b)
	}
}

func TestMeasureRelativeErrorEmptyGraph(t *testing.T) {
	e := &Embedding{D: 3}
	if got := MeasureRelativeError(graph.New(), e, 10, 2, 1); got != 0 {
		t.Fatalf("error on empty graph = %v", got)
	}
}

func TestIncorporateNode(t *testing.T) {
	g := gen.Grid(8, 8)
	idx, e := buildEmbedding(t, g, 8, 4)
	// New node attached to node 0 and node 1.
	u := g.AddNode("")
	g.AddEdgeFast(0, u)
	g.AddEdgeFast(u, 1)
	idx.IncorporateNode(g, u)
	e.IncorporateNode(g, idx, u, Options{Dimensions: 4, Seed: 42})
	cu := e.Coords(u)
	if cu == nil {
		t.Fatal("new node has no coordinates")
	}
	// It should land near node 0's coordinates (1 hop) and far from the
	// opposite corner (~14 hops).
	near := Euclidean(cu, e.Coords(0))
	far := Euclidean(cu, e.Coords(63))
	if near >= far {
		t.Fatalf("incorporated node misplaced: near=%v far=%v", near, far)
	}
}

func TestCoordsOutOfRange(t *testing.T) {
	e := &Embedding{D: 3}
	if e.Coords(5) != nil {
		t.Fatal("Coords out of range should be nil")
	}
	if e.NumNodes() != 0 {
		t.Fatalf("NumNodes = %d", e.NumNodes())
	}
}

func TestStorageBytes(t *testing.T) {
	g := gen.Ring(50)
	_, e := buildEmbedding(t, g, 4, 5)
	if got := e.StorageBytes(); got != int64(50*5*4) {
		t.Fatalf("StorageBytes = %d, want 1000", got)
	}
}

func TestEuclidean(t *testing.T) {
	a := []float32{0, 3}
	b := []float32{4, 0}
	if d := Euclidean(a, b); math.Abs(d-5) > 1e-9 {
		t.Fatalf("Euclidean = %v, want 5", d)
	}
	if d := Euclidean(a, a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}
