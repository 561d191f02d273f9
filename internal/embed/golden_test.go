package embed

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
)

// The landmark index is allowed to get cheaper, never different: the
// wantDist hashes (FNV-64a over every Index.Dist row) were generated at the
// commit BEFORE BuildIndex moved onto caller-owned scratch and have not
// changed since. The wantEmb hashes (over the coordinate table's float32
// bits) held through that move too, and were regenerated ONCE, by the one
// change allowed to move the embedding's output: the search finds the real
// second-worst vertex, stops at a tolerance in the objective's units, and
// starts at the nearest landmark without jitter. What that change had to
// show instead of equal bits is beside the hashes: TestGoldenQualityFloor
// (the fit and the pair error it may not give up) and
// TestBuildEvaluationBudget (the work it may not take back). One triple per
// worker count. WebGraph is dense and connected; Freebase is sparse, so most
// of its nodes take the unreachable-from-every-landmark path (randomPoint)
// and the rest see only a few anchors.
var goldenBuilds = []struct {
	dataset  gen.Dataset
	scale    float64
	seed     int64
	workers  int
	wantDist uint64
	wantEmb  uint64
}{
	{gen.WebGraph, 0.05, 7, 1, 0xa7ba1421219ff1b3, 0x7bc52fc079877bd7},
	{gen.Freebase, 0.1, 11, 4, 0x66dddb05048dd63c, 0x0d0b89705446b6a5},
}

func TestPreprocessingBitIdentical(t *testing.T) {
	for _, c := range goldenBuilds {
		g, err := gen.Preset(c.dataset, c.scale, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		idx := landmark.BuildIndex(g, landmark.Select(g, 16, 2), c.workers)
		h := fnv.New64a()
		var b [4]byte
		for i := 0; i < idx.NumLandmarks(); i++ {
			for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
				binary.LittleEndian.PutUint16(b[:2], idx.Dist(i, u))
				h.Write(b[:2])
			}
		}
		if got := h.Sum64(); got != c.wantDist {
			t.Errorf("%s seed %d workers %d: landmark rows hash %#x, want %#x", c.dataset, c.seed, c.workers, got, c.wantDist)
		}
		e, err := Build(g, idx, Options{Dimensions: 8, Seed: c.seed, Workers: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		h.Reset()
		for _, v := range e.coords {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.wantEmb {
			t.Errorf("%s seed %d workers %d: coordinates hash %#x, want %#x", c.dataset, c.seed, c.workers, got, c.wantEmb)
		}
	}
}

// goldenWebGraph builds the WebGraph golden case's graph and index.
func goldenWebGraph(t *testing.T) (*graph.Graph, *landmark.Index) {
	t.Helper()
	g, err := gen.Preset(gen.WebGraph, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g, landmark.BuildIndex(g, landmark.Select(g, 16, 2), 0)
}

// The quality the regenerated hashes stand for, on the WebGraph case
// (Freebase is mostly the unreachable-node path, whose placement is random by
// design). Before the change → after: landmark fit 0.0870 → 0.0877 (what
// the search minimises; the floor allows +0.01), ≤ 2-hop pair error
// 0.4983 → 0.4933 (what routing depends on; may not rise).
func TestGoldenQualityFloor(t *testing.T) {
	const parentFit, parentPairErr = 0.0870, 0.4983
	g, idx := goldenWebGraph(t)
	e, err := Build(g, idx, Options{Dimensions: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fit := MeasureLandmarkFit(idx, e, 2000, 5)
	pairErr := MeasureRelativeError(g, e, 2000, 2, 99)
	t.Logf("landmark fit %.4f (parent %.4f), 2-hop pair error %.4f (parent %.4f)", fit, parentFit, pairErr, parentPairErr)
	if fit > parentFit+0.01 {
		t.Errorf("landmark fit %.4f, floor %.4f", fit, parentFit+0.01)
	}
	if pairErr > parentPairErr {
		t.Errorf("2-hop pair error %.4f, floor %.4f", pairErr, parentPairErr)
	}
}

// The searches stop because they have converged, and that is counted, not
// timed: before the change a placed node cost 312.8 objective evaluations
// and 97.4 % of the searches ran into MaxIter. The counts are a function of
// the graph and the options alone, so they hold on any host and for any
// number of workers.
func TestBuildEvaluationBudget(t *testing.T) {
	const parentEvalsPerNode = 312.8
	g, idx := goldenWebGraph(t)
	var first BuildStats
	for _, workers := range []int{1, 4} {
		e, err := Build(g, idx, Options{Dimensions: 8, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		st := e.BuildStats()
		if workers == 1 {
			first = st
		} else if st != first {
			t.Errorf("%d workers: %+v, 1 worker: %+v", workers, st, first)
		}
	}
	perNode := first.EvalsPerNode()
	capped := float64(first.Capped) / float64(first.Placed)
	t.Logf("prepbudget: embed.Build of %d nodes: %.1f evaluations per placed node (parent %.1f), %.1f iterations, %.4f of searches capped (parent 0.9742)",
		g.NumNodes(), perNode, parentEvalsPerNode, float64(first.Iterations)/float64(first.Placed), capped)
	if first.Placed == 0 || perNode > 0.6*parentEvalsPerNode {
		t.Errorf("%.1f evaluations per placed node over %d nodes, budget %.1f", perNode, first.Placed, 0.6*parentEvalsPerNode)
	}
	if capped > 0.05 {
		t.Errorf("%.4f of the searches ended at MaxIter, budget 0.05", capped)
	}
}

// With no jitter in the start a reachable node's row depends only on the
// anchors and its landmark distances, so the paper's update path, given an
// unchanged index, lands a node exactly where the batch build put it.
func TestIncorporateNodeReproducesBuildRow(t *testing.T) {
	g, idx := goldenWebGraph(t)
	isLandmark := map[graph.NodeID]bool{}
	for _, l := range idx.Landmarks {
		isLandmark[l] = true
	}
	for _, workers := range []int{1, 4} {
		opts := Options{Dimensions: 8, Seed: 7, Workers: workers}
		e, err := Build(g, idx, opts)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for u := graph.NodeID(0); u < g.MaxNodeID(); u += 97 {
			if isLandmark[u] || !g.Exists(u) {
				continue
			}
			want := slices.Clone(e.Coords(u))
			e.IncorporateNode(idx, u, opts)
			if got := e.Coords(u); !slices.Equal(got, want) {
				t.Fatalf("%d workers, node %d: IncorporateNode placed it at %v, Build at %v", workers, u, got, want)
			}
			checked++
		}
		if checked < 25 {
			t.Fatalf("only %d nodes checked", checked)
		}
	}
}

// Build allocates the coordinate table, the anchors and one scratch per
// worker — not a simplex per node (before the scratch: well over a dozen
// allocations and ≈ 1.9 kB for every node of the graph).
func TestBuildAllocBudget(t *testing.T) {
	g, idx := goldenWebGraph(t)
	const workers = 4
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Build(g, idx, Options{Dimensions: 8, Seed: 7, Workers: workers}); err != nil {
			t.Fatal(err)
		}
	})
	budget := 1 + 0.05*float64(g.NumNodes())
	t.Logf("embed.Build of %d nodes, %d workers: %.0f allocations (budget %.0f)", g.NumNodes(), workers, allocs, budget)
	if allocs > budget {
		t.Errorf("%.0f allocations, budget %.0f", allocs, budget)
	}
}

func TestNelderMeadWarmScratchAllocatesNothing(t *testing.T) {
	target := []float64{3, -1, 2, 0.5}
	f := func(x []float64) float64 {
		var s float64
		for i, v := range x {
			s += (v - target[i]) * (v - target[i])
		}
		return s
	}
	var s scratch
	x0 := make([]float64, len(target))
	s.nelderMead(f, x0, NMOptions{})
	if allocs := testing.AllocsPerRun(10, func() { s.nelderMead(f, x0, NMOptions{}) }); allocs != 0 {
		t.Errorf("nelderMead on a warm scratch: %.0f allocations, want 0", allocs)
	}
}
