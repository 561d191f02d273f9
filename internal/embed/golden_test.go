package embed

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
)

// The preprocessing is allowed to get cheaper, never different: the hashes
// below were generated at the commit BEFORE BuildIndex and Build moved onto
// caller-owned scratch (FNV-64a over every Index.Dist row, then over the
// coordinate table's float32 bits), one triple per worker count, and the
// scratch forms must reproduce them to the last bit. WebGraph is dense and
// connected; Freebase is sparse, so most of its nodes take the
// unreachable-from-every-landmark path (randomPoint) and the rest see only a
// few anchors.
var goldenBuilds = []struct {
	dataset  gen.Dataset
	scale    float64
	seed     int64
	workers  int
	wantDist uint64
	wantEmb  uint64
}{
	{gen.WebGraph, 0.05, 7, 1, 0xa7ba1421219ff1b3, 0xdbbf3215217552bb},
	{gen.Freebase, 0.1, 11, 4, 0x66dddb05048dd63c, 0xe6ac45ff73aabf94},
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

// Build allocates the coordinate table, the anchors and one scratch per
// worker — not a simplex per node (before the scratch: well over a dozen
// allocations and ≈ 1.9 kB for every node of the graph).
func TestBuildAllocBudget(t *testing.T) {
	g, err := gen.Preset(gen.WebGraph, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	idx := landmark.BuildIndex(g, landmark.Select(g, 16, 2), 0)
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
