package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// The generators that build through graph.Bulk, as they were written before
// it: every node created up front, one AddEdgeFast per edge, every slice
// grown by append. Kept as the oracles the Bulk versions must reproduce
// exactly — the same random draws in the same order, so the same graph.

func replayLocalWeb(n, m, window int, hubFrac float64, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	if window < 2 {
		window = 2
	}
	g := graph.NewWithCapacity(n)
	g.AddNodes(n)
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		for k := 0; k < m; k++ {
			var v int
			if rng.Float64() < hubFrac {
				u := rng.Float64()
				v = int(u * u * u * float64(n))
			} else {
				v = i - window/2 + rng.Intn(window)
			}
			if v < 0 {
				v = 0
			}
			if v >= n {
				v = n - 1
			}
			if v == i {
				v = (i + 1) % n
			}
			g.AddEdgeFast(graph.NodeID(i), graph.NodeID(v))
		}
	}
	return g
}

func replayBarabasiAlbert(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	g := graph.NewWithCapacity(n)
	g.AddNodes(n)
	rng := xrand.New(seed)
	repeated := make([]graph.NodeID, 0, 2*n*m)
	start := min(m+1, n)
	for i := 0; i < start; i++ {
		for j := 0; j < i; j++ {
			g.AddEdgeFast(graph.NodeID(i), graph.NodeID(j))
			repeated = append(repeated, graph.NodeID(i), graph.NodeID(j))
		}
	}
	for i := start; i < n; i++ {
		u := graph.NodeID(i)
		for k := 0; k < m; k++ {
			var v graph.NodeID
			if len(repeated) == 0 {
				v = graph.NodeID(rng.Intn(i))
			} else {
				v = repeated[rng.Intn(len(repeated))]
			}
			g.AddEdgeFast(u, v)
			repeated = append(repeated, u, v)
		}
	}
	return g
}

func replayCascade(n int, avgDeg float64, seed int64) *graph.Graph {
	g := graph.NewWithCapacity(n)
	g.AddNodes(n)
	rng := xrand.New(seed)
	for i := 1; i < n; i++ {
		deg := int(avgDeg)
		if rng.Float64() < avgDeg-float64(deg) {
			deg++
		}
		for k := 0; k < deg; k++ {
			var v int
			if rng.Float64() < 0.7 {
				window := 1 + i/10
				v = max(i-1-rng.Intn(window), 0)
			} else {
				v = rng.Intn(i)
			}
			g.AddEdgeFast(graph.NodeID(i), graph.NodeID(v))
		}
	}
	return g
}

func replayRing(n int) *graph.Graph {
	g := graph.NewWithCapacity(n)
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddEdgeFast(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return g
}

// TestGeneratorsMatchReplay holds every generator that builds through
// graph.Bulk to its AddEdgeFast replay: the same ids, node and edge counts,
// and out- and in-lists in the same order. WebGraph is the benchmark's
// dataset, so it runs at the benchmark's scale as well as a test's; the
// small and degenerate sizes catch a first node with no edges (Cascade's
// node 0, BarabasiAlbert's clique root) going missing from the id space.
func TestGeneratorsMatchReplay(t *testing.T) {
	type pair struct {
		name      string
		got, want func() *graph.Graph
	}
	var cases []pair
	for _, scale := range []float64{0.05, 1.0} {
		n := int(float64(Specs[WebGraph].BaseNodes) * scale)
		for _, seed := range []int64{1, 2, 3} {
			cases = append(cases, pair{"webgraph",
				func() *graph.Graph { g, _ := Preset(WebGraph, scale, seed); return g },
				func() *graph.Graph { return replayLocalWeb(n, 12, 160, 0.04, seed) }})
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		social, meme := int(float64(Specs[Friendster].BaseNodes)*0.05), int(float64(Specs[Memetracker].BaseNodes)*0.05)
		cases = append(cases, pair{"friendster",
			func() *graph.Graph { g, _ := Preset(Friendster, 0.05, seed); return g },
			func() *graph.Graph { return replayBarabasiAlbert(social, 27, seed) }})
		cases = append(cases, pair{"memetracker",
			func() *graph.Graph { g, _ := Preset(Memetracker, 0.05, seed); return g },
			func() *graph.Graph { return replayCascade(meme, 4.3, seed) }})
	}
	for _, n := range []int{0, 1, 2, 3, 7} {
		cases = append(cases,
			pair{"localweb", func() *graph.Graph { return LocalWeb(n, 2, 1, 0.5, 9) }, func() *graph.Graph { return replayLocalWeb(n, 2, 1, 0.5, 9) }},
			pair{"barabasi", func() *graph.Graph { return BarabasiAlbert(n, 3, 9) }, func() *graph.Graph { return replayBarabasiAlbert(n, 3, 9) }},
			pair{"cascade", func() *graph.Graph { return Cascade(n, 1.5, 9) }, func() *graph.Graph { return replayCascade(n, 1.5, 9) }},
			pair{"ring", func() *graph.Graph { return Ring(n) }, func() *graph.Graph { return replayRing(n) }})
	}
	for _, c := range cases {
		got, want := c.got(), c.want()
		t.Run(c.name, func(t *testing.T) { sameGraph(t, got, want) })
	}
}

// digest is an FNV-64a hash of g's id space and every adjacency in order.
func digest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b []byte
	word := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	word(uint32(g.MaxNodeID()))
	word(uint32(g.NumEdges()))
	for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
		for _, es := range [][]graph.Edge{g.OutEdges(u), g.InEdges(u)} {
			word(uint32(len(es)))
			for _, e := range es {
				word(uint32(e.To))
				b = binary.LittleEndian.AppendUint16(b, uint16(e.Label))
			}
		}
		h.Write(b)
		b = b[:0]
	}
	return h.Sum64()
}

// TestBenchmarkDatasetDigest pins the benchmark's dataset, the WebGraph
// preset at scale 1.0, on three seeds, to hashes the append-per-edge
// generator produced. Every figure, golden file and benchmark number rests
// on these graphs: a generator change that moves them must fail here, not
// surface as a drift somewhere downstream.
func TestBenchmarkDatasetDigest(t *testing.T) {
	for seed, want := range map[int64]uint64{
		1: 0x1ac806a02a26156e,
		2: 0x565654be8f668f6a,
		3: 0x5a2f1436285499e8,
	} {
		g, err := Preset(WebGraph, 1.0, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(g); got != want {
			t.Errorf("seed %d: WebGraph at scale 1.0 hashes to %#x, want %#x", seed, got, want)
		}
	}
}
