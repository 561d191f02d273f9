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
// bits) held through that move too, and have been regenerated twice, each
// time by a change whose purpose was to move the embedding's output: once
// when the search found the real second-worst vertex, stopped at a tolerance
// in the objective's units and started at the nearest landmark without
// jitter, and once when Build gained its neighbour-averaging pass. What such
// a change has to show instead of equal bits is beside the hashes:
// TestGoldenQualityFloor (the fit the searches may not give up, the pair
// error the table may not exceed), TestBuildEvaluationBudget (the work the
// searches may not take back) and, for what the table is for,
// TestEmbedCapturesHotspotReuse in internal/rpc. One triple per worker
// count. WebGraph is dense and connected; Freebase is sparse, so most of its
// nodes take the unreachable-from-every-landmark path (randomPoint) and the
// rest see only a few anchors.
var goldenBuilds = []struct {
	dataset  gen.Dataset
	scale    float64
	seed     int64
	workers  int
	wantDist uint64
	wantEmb  uint64
}{
	{gen.WebGraph, 0.05, 7, 1, 0xa7ba1421219ff1b3, 0xbc000c844013eb7e},
	{gen.Freebase, 0.1, 11, 4, 0x66dddb05048dd63c, 0x7ab35b4478c9632c},
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
// design), in two halves because Build has two.
//
// The searched rows, before the pass, are held to what they were held to when
// the searches last changed: landmark fit 0.0870 → 0.0877 (what a search
// minimises; the floor allows +0.01), ≤ 2-hop pair error 0.4983 → 0.4933
// (may not rise). Neither constant was raised for the pass.
//
// The table Build returns is held to a pair-error ceiling measured when the
// pass landed, 0.5512 — HIGHER than the searched rows' 0.4933 on this 3,000-
// node graph, while on the 60 k-node preset the same pass halves it
// (0.87–1.08 → 0.41–0.63). The mean contracts every distance, and Eq 4
// reads a pair drawn closer than its hop count as error; what routing needs
// is that a node is nearer its neighbours than anything else, which the pair
// error only partly says. So neither it nor the landmark fit (0.0877 →
// 0.2964 here) is what the pass is judged by: routing follows reuse captured,
// the cache hits embed routing gets of those a router that knew the hotspots
// would (TestEmbedCapturesHotspotReuse, internal/rpc — on this graph 984 →
// 1,009 of 980, at scale 0.2 2,870 → 3,154 of 3,099). The ceiling is here
// so that a later change to the pass cannot scatter neighbours unnoticed.
func TestGoldenQualityFloor(t *testing.T) {
	const searchedFit, searchedPairErr, pairErrCeiling = 0.0870, 0.4983, 0.56
	g, idx := goldenWebGraph(t)
	e, err := searchRows(g, idx, Options{Dimensions: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fit := MeasureLandmarkFit(idx, e, 2000, 5)
	if fit > searchedFit+0.01 {
		t.Errorf("searched rows: landmark fit %.4f, floor %.4f", fit, searchedFit+0.01)
	}
	if pairErr := MeasureRelativeError(g, e, 2000, 2, 99); pairErr > searchedPairErr {
		t.Errorf("searched rows: 2-hop pair error %.4f, floor %.4f", pairErr, searchedPairErr)
	}
	e.averageNeighbours(g)
	pairErr := MeasureRelativeError(g, e, 2000, 2, 99)
	t.Logf("prepbudget: the same build: landmark fit %.4f before the pass (ceiling %.4f), 2-hop pair error %.4f after it (ceiling %.2f)",
		fit, searchedFit+0.01, pairErr, pairErrCeiling)
	if pairErr > pairErrCeiling {
		t.Errorf("2-hop pair error %.4f after the pass, ceiling %.2f", pairErr, pairErrCeiling)
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

// The update path and the build agree by construction: incorporating a node
// that has embedded neighbours is the pass's step for that node — the mean of
// their rows as they stand, one term per edge — whether or not the node was
// there before, and a node with none is searched for against the landmarks'
// rows, with no jitter in the start, so it lands where the same search lands
// it again.
func TestIncorporateNodeReproducesBuildRow(t *testing.T) {
	g, idx := goldenWebGraph(t)
	opts := Options{Dimensions: 8, Seed: 7}
	e, err := Build(g, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for u := graph.NodeID(0); u < g.MaxNodeID(); u += 97 {
		if g.Degree(u) == 0 {
			continue
		}
		sum := make([]float64, e.D)
		for _, adj := range [][]graph.Edge{g.OutEdges(u), g.InEdges(u)} {
			for _, ed := range adj {
				for j, v := range e.Coords(ed.To) {
					sum[j] += float64(v)
				}
			}
		}
		want := make([]float32, e.D)
		for j := range want {
			want[j] = float32(sum[j] / float64(g.Degree(u)))
		}
		e.IncorporateNode(g, idx, u, opts)
		if got := e.Coords(u); !slices.Equal(got, want) {
			t.Fatalf("node %d: IncorporateNode placed it at %v, the mean of its neighbours is %v", u, got, want)
		}
		checked++
	}
	if checked < 25 {
		t.Fatalf("only %d nodes checked", checked)
	}

	// A node with no neighbour — here, given a graph that has none of its
	// edges — falls back to the search, which depends on the table only
	// through the landmarks' rows: twice the same row, and not the mean.
	const u = 97
	none := graph.New()
	e.IncorporateNode(none, idx, u, opts)
	searched := slices.Clone(e.Coords(u))
	e.IncorporateNode(g, idx, u, opts)
	if slices.Equal(e.Coords(u), searched) {
		t.Fatalf("node %d: the search and the neighbour mean agree on %v; the fallback was not exercised", u, searched)
	}
	e.IncorporateNode(none, idx, u, opts)
	if got := e.Coords(u); !slices.Equal(got, searched) {
		t.Fatalf("node %d: searched for twice, placed at %v then %v", u, searched, got)
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
