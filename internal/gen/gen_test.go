package gen

import (
	"sort"
	"testing"

	"repro/internal/graph"
)

func TestRMATBasicShape(t *testing.T) {
	g := RMAT(RMATOptions{Nodes: 1000, Edges: 5000, Seed: 1})
	if g.NumNodes() != 1000 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 5000 {
		t.Fatalf("NumEdges = %d, want exactly 5000", g.NumEdges())
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(RMATOptions{Nodes: 500, Edges: 2000, Seed: 7})
	b := RMAT(RMATOptions{Nodes: 500, Edges: 2000, Seed: 7})
	for id := graph.NodeID(0); id < a.MaxNodeID(); id++ {
		ea, eb := a.OutEdges(id), b.OutEdges(id)
		if len(ea) != len(eb) {
			t.Fatalf("node %d out-degree differs: %d vs %d", id, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("node %d edge %d differs", id, i)
			}
		}
	}
	c := RMAT(RMATOptions{Nodes: 500, Edges: 2000, Seed: 8})
	diff := 0
	for id := graph.NodeID(0); id < a.MaxNodeID(); id++ {
		if len(a.OutEdges(id)) != len(c.OutEdges(id)) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical degree sequences")
	}
}

func TestRMATSkew(t *testing.T) {
	g := RMAT(RMATOptions{Nodes: 5000, Edges: 50000, Seed: 2})
	ccdf := DegreeCCDF(g, []int{1, 50, 200})
	if ccdf[0] < 0.5 {
		t.Fatalf("too few nodes with any edge: %v", ccdf)
	}
	// A power-law-ish tail: some nodes accumulate >200 edges while the
	// average is 10.
	if ccdf[2] == 0 {
		t.Fatalf("no heavy tail: ccdf = %v", ccdf)
	}
	if ccdf[2] > 0.05 {
		t.Fatalf("tail too fat to be skewed: ccdf = %v", ccdf)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	const n, m = 2000, 5
	g := BarabasiAlbert(n, m, 3)
	if g.NumNodes() != n {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	// Expected edges: clique on m+1 nodes + m per remaining node.
	clique := (m + 1) * m / 2
	want := clique + (n-(m+1))*m
	if g.NumEdges() != want {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
	// Preferential attachment concentrates degree on early nodes.
	early, late := 0, 0
	for i := 0; i < 100; i++ {
		early += g.Degree(graph.NodeID(i))
		late += g.Degree(graph.NodeID(n - 1 - i))
	}
	if early < 3*late {
		t.Fatalf("no preferential attachment: early=%d late=%d", early, late)
	}
}

func TestBarabasiAlbertSmallN(t *testing.T) {
	g := BarabasiAlbert(3, 5, 1) // m > n: clique fallback must not panic
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	g2 := BarabasiAlbert(10, 0, 1) // m < 1 clamps to 1
	if g2.NumEdges() == 0 {
		t.Fatal("BA with clamped m produced no edges")
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(1000, 4000, 5)
	if g.NumNodes() != 1000 || g.NumEdges() != 4000 {
		t.Fatalf("shape = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	// Degrees should be concentrated (no heavy tail).
	ccdf := DegreeCCDF(g, []int{30})
	if ccdf[0] > 0.001 {
		t.Fatalf("ER graph has heavy tail: %v", ccdf)
	}
}

func TestCascade(t *testing.T) {
	g := Cascade(3000, 4.3, 6)
	if g.NumNodes() != 3000 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	avg := float64(g.NumEdges()) / float64(g.NumNodes())
	if avg < 3.5 || avg > 5.0 {
		t.Fatalf("avg out-degree = %v, want ~4.3", avg)
	}
	// Cascades only point backwards: every edge i->v has v < i.
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		for _, e := range g.OutEdges(id) {
			if e.To >= id {
				t.Fatalf("cascade edge %d -> %d points forward", id, e.To)
			}
		}
	}
}

func TestKnowledgeGraph(t *testing.T) {
	g := KnowledgeGraph(2000, 1800, 10, 25, 7)
	if g.NumNodes() != 2000 || g.NumEdges() != 1800 {
		t.Fatalf("shape = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	// All node labels drawn from typeN; edges labelled relN.
	typeSeen := map[string]bool{}
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		typeSeen[g.NodeLabel(id)] = true
		for _, e := range g.OutEdges(id) {
			if g.Labels().String(e.Label) == "" {
				t.Fatalf("edge from %d has empty label", id)
			}
		}
	}
	if len(typeSeen) < 5 {
		t.Fatalf("only %d node types used", len(typeSeen))
	}
}

func TestGridDistances(t *testing.T) {
	g := Grid(5, 4)
	if g.NumNodes() != 20 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	// Manhattan distance from corner 0 to opposite corner = (5-1)+(4-1).
	d := g.HopDistance(0, graph.NodeID(19), -1, graph.Out)
	if d != 7 {
		t.Fatalf("corner-to-corner distance = %d, want 7", d)
	}
}

func TestRing(t *testing.T) {
	g := Ring(10)
	if g.NumEdges() != 10 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if d := g.HopDistance(0, 9, -1, graph.Out); d != 9 {
		t.Fatalf("directed ring distance = %d, want 9", d)
	}
	if d := g.HopDistance(0, 9, -1, graph.Both); d != 1 {
		t.Fatalf("bidirected ring distance = %d, want 1", d)
	}
}

func TestPresetsGenerate(t *testing.T) {
	for _, d := range Datasets {
		g, err := Preset(d, 0.05, 42)
		if err != nil {
			t.Fatalf("Preset(%s): %v", d, err)
		}
		if g.NumNodes() < 64 {
			t.Fatalf("Preset(%s) has %d nodes", d, g.NumNodes())
		}
		spec := Specs[d]
		avg := float64(g.NumEdges()) / float64(g.NumNodes())
		// Density should be within 2x of the spec's edge factor (except
		// for the BA generator whose clique seed distorts tiny graphs).
		if avg > spec.EdgeFactor*2+1 || avg < spec.EdgeFactor/3 {
			t.Errorf("Preset(%s) avg degree %v, spec %v", d, avg, spec.EdgeFactor)
		}
	}
}

func TestPresetRelativeDensity(t *testing.T) {
	// Friendster must have a much larger 2-hop neighbourhood than Freebase,
	// as the paper's Figure 16 analysis requires.
	fr, err := Preset(Friendster, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Preset(Freebase, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	frHop := graph.AvgKHopSize(fr, 2, 30, graph.Both)
	fbHop := graph.AvgKHopSize(fb, 2, 30, graph.Both)
	if frHop < 4*fbHop {
		t.Fatalf("2-hop sizes: friendster=%v freebase=%v, want friendster >> freebase", frHop, fbHop)
	}
}

func TestPresetErrors(t *testing.T) {
	if _, err := Preset("nope", 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := Preset(WebGraph, 0, 1); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := Preset(WebGraph, -1, 1); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestPresetDeterministic(t *testing.T) {
	a, _ := Preset(Memetracker, 0.02, 9)
	b, _ := Preset(Memetracker, 0.02, 9)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
}

// DegreeCCDF returns the complementary cumulative degree distribution of g
// at the probe degrees: fraction of nodes with total degree >= probe.
// Tests use it to assert heavy tails for the skewed presets.
func DegreeCCDF(g *graph.Graph, probes []int) []float64 {
	degrees := make([]int, 0, g.NumNodes())
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		if g.Exists(id) {
			degrees = append(degrees, g.Degree(id))
		}
	}
	sort.Ints(degrees)
	out := make([]float64, len(probes))
	for i, p := range probes {
		// index of first degree >= p
		idx := sort.SearchInts(degrees, p)
		out[i] = float64(len(degrees)-idx) / float64(len(degrees))
	}
	return out
}
