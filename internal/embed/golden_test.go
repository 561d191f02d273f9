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
// bits) held through that move too, and have been regenerated three times,
// each time by a change whose purpose was to move the embedding's output:
// once when the search found the real second-worst vertex, stopped at a
// tolerance in the objective's units and started at the nearest landmark
// without jitter, once when Build gained its neighbour-averaging pass, and
// once when landmark MDS replaced the searches. What such a change has to
// show instead of equal bits is beside the hashes: TestGoldenQualityFloor
// (the fit and pair error the table may not exceed) and, for what the table
// is for, TestEmbedCapturesHotspotReuse in internal/rpc. The index is built
// with one worker for the first case and four for the second. WebGraph is
// dense and connected; Freebase is sparse, so most of its nodes take the
// unreachable-from-every-landmark path (farOut).
var goldenBuilds = []struct {
	dataset  gen.Dataset
	scale    float64
	seed     int64
	workers  int
	wantDist uint64
	wantEmb  uint64
}{
	{gen.WebGraph, 0.05, 7, 1, 0xa7ba1421219ff1b3, 0xc6106113abf8f229},
	{gen.Freebase, 0.1, 11, 4, 0x66dddb05048dd63c, 0xf148404902e3111a},
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
		e, err := Build(g, idx, Options{Dimensions: 8, Seed: c.seed})
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
// The triangulated rows, before the pass, are held to what they measured when
// landmark MDS replaced the Simplex Downhill searches: landmark fit 0.1506
// (the searches' 0.0877 was lower — the fit is what they minimised, where MDS
// fits squared distances), ≤ 2-hop pair error 0.3722 (the searches' 0.4933).
//
// The table Build returns is held to a pair-error ceiling measured on the
// same change, 0.5636 (0.5512 over the searched rows, with a ceiling of 0.56
// then). It is higher than the triangulated rows' own: the mean contracts
// every distance, and Eq 4 reads a pair drawn closer than its hop count as
// error; what routing needs is that a node is nearer its neighbours than
// anything else, which the pair error only partly says. So neither it nor the
// landmark fit (0.1506 → 0.3097 here) is what the table is judged by: routing
// follows reuse captured, the cache hits embed routing gets of those a router
// that knew the hotspots would (TestEmbedCapturesHotspotReuse, internal/rpc —
// at scale 0.2, 3,154 of 3,099 over the searched rows, 3,175 over these).
// The ceilings are here so that a later change to the placement or the pass
// cannot scatter neighbours unnoticed.
func TestGoldenQualityFloor(t *testing.T) {
	const fitCeiling, rowsPairErrCeiling, pairErrCeiling = 0.16, 0.38, 0.57
	g, idx := goldenWebGraph(t)
	e, err := landmarkRows(g, idx, Options{Dimensions: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fit := MeasureLandmarkFit(idx, e, 2000, 5)
	if fit > fitCeiling {
		t.Errorf("triangulated rows: landmark fit %.4f, ceiling %.2f", fit, fitCeiling)
	}
	if pairErr := MeasureRelativeError(g, e, 2000, 2, 99); pairErr > rowsPairErrCeiling {
		t.Errorf("triangulated rows: 2-hop pair error %.4f, ceiling %.2f", pairErr, rowsPairErrCeiling)
	}
	e.averageNeighbours(g)
	pairErr := MeasureRelativeError(g, e, 2000, 2, 99)
	t.Logf("prepbudget: embed.Build of %d nodes: landmark fit %.4f before the pass (ceiling %.2f), 2-hop pair error %.4f after it (ceiling %.2f)",
		g.NumNodes(), fit, fitCeiling, pairErr, pairErrCeiling)
	if pairErr > pairErrCeiling {
		t.Errorf("2-hop pair error %.4f after the pass, ceiling %.2f", pairErr, pairErrCeiling)
	}
}

// The update path and the build agree by construction: incorporating a node
// that has embedded neighbours is the pass's step for that node — the mean of
// their rows as they stand, one term per edge — whether or not the node was
// there before, and a node with none is placed where Build placed it before
// the pass: triangulated from its landmark distances.
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
	// edges — falls back to the triangulation: the row landmarkRows gives it,
	// not the mean.
	const u = 97
	rows, err := landmarkRows(g, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.IncorporateNode(graph.New(), idx, u, opts)
	if got, want := e.Coords(u), rows.Coords(u); !slices.Equal(got, want) {
		t.Fatalf("node %d: the fallback placed it at %v, the triangulation at %v", u, got, want)
	}
	e.IncorporateNode(g, idx, u, opts)
	if slices.Equal(e.Coords(u), rows.Coords(u)) {
		t.Fatalf("node %d: the triangulation and the neighbour mean agree on %v; the fallback was not exercised", u, rows.Coords(u))
	}
}

// Build allocates the coordinate table, the landmark solve and a few rows of
// scratch — a fixed count, whatever the number of nodes (a search per node
// once cost well over a dozen allocations for every node of the graph).
func TestBuildAllocBudget(t *testing.T) {
	const budget = 16
	var counts []float64
	for _, scale := range []float64{0.02, 0.05} {
		g, err := gen.Preset(gen.WebGraph, scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		idx := landmark.BuildIndex(g, landmark.Select(g, 16, 2), 0)
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := Build(g, idx, Options{Dimensions: 8, Seed: 7}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("embed.Build of %d nodes: %.0f allocations (budget %d)", g.NumNodes(), allocs, budget)
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] > budget {
		t.Errorf("allocations %v over two graph sizes; want one count, at most %d", counts, budget)
	}
}
