package partition

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestHashPartitionCovers(t *testing.T) {
	g := gen.ErdosRenyi(500, 2000, 1)
	a := HashPartition(g, 4)
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	if b := a.Balance(g); b > 1.3 {
		t.Fatalf("hash balance = %v", b)
	}
}

func TestHashPartitionSkipsRemoved(t *testing.T) {
	g := gen.Ring(10)
	if err := g.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	a := HashPartition(g, 2)
	if a.Of[3] != -1 {
		t.Fatalf("removed node assigned to part %d", a.Of[3])
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestLDGBeatsHashOnCut(t *testing.T) {
	// A strongly clustered graph: LDG should find a far lower cut.
	g := graph.New()
	const clusters, per = 4, 100
	g.AddNodes(clusters * per)
	for c := 0; c < clusters; c++ {
		base := c * per
		for i := 0; i < per*6; i++ {
			u := base + (i*7)%per
			v := base + (i*13+1)%per
			g.AddEdgeFast(graph.NodeID(u), graph.NodeID(v))
		}
	}
	// Sparse inter-cluster bridges.
	for c := 0; c < clusters; c++ {
		g.AddEdgeFast(graph.NodeID(c*per), graph.NodeID(((c+1)%clusters)*per))
	}
	hashCut := HashPartition(g, clusters).CutFraction(g)
	ldg := LDG(g, clusters, 0.1)
	if err := ldg.Validate(g); err != nil {
		t.Fatal(err)
	}
	ldgCut := ldg.CutFraction(g)
	if ldgCut >= hashCut/2 {
		t.Fatalf("LDG cut %v not clearly better than hash cut %v", ldgCut, hashCut)
	}
	if b := ldg.Balance(g); b > 1.3 {
		t.Fatalf("LDG balance = %v", b)
	}
}

func TestRefineImprovesCut(t *testing.T) {
	g := gen.BarabasiAlbert(600, 4, 3)
	a := HashPartition(g, 4)
	before := a.CutFraction(g)
	Refine(g, a, 4, 0.15)
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	after := a.CutFraction(g)
	if after >= before {
		t.Fatalf("refinement did not improve cut: %v -> %v", before, after)
	}
	if b := a.Balance(g); b > 1.3 {
		t.Fatalf("refined balance = %v", b)
	}
}

func TestRefineRespectsBalanceCap(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 9)
	a := HashPartition(g, 4)
	Refine(g, a, 8, 0.05)
	if b := a.Balance(g); b > 1.15 {
		t.Fatalf("balance cap violated: %v", b)
	}
}

func TestCutFractionBounds(t *testing.T) {
	g := gen.Ring(8)
	a := HashPartition(g, 2)
	cf := a.CutFraction(g)
	if cf < 0 || cf > 1 {
		t.Fatalf("cut fraction = %v", cf)
	}
	// Single part: no cut.
	one := HashPartition(g, 1)
	if got := one.CutFraction(g); got != 0 {
		t.Fatalf("1-part cut = %v", got)
	}
	if got := (&EdgeCut{Of: nil, K: 2}).CutFraction(graph.New()); got != 0 {
		t.Fatalf("empty-graph cut = %v", got)
	}
}

func TestGreedyVertexCutValidRange(t *testing.T) {
	g := gen.Ring(4)
	if _, err := GreedyVertexCut(g, 0); err == nil {
		t.Fatal("accepted 0 parts")
	}
	if _, err := GreedyVertexCut(g, 65); err == nil {
		t.Fatal("accepted 65 parts")
	}
}

func TestGreedyVertexCutCoversEdges(t *testing.T) {
	g := gen.BarabasiAlbert(500, 5, 2)
	vc, err := GreedyVertexCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	totalAssigned := 0
	for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
		if len(vc.EdgeOf[u]) != len(g.OutEdges(u)) {
			t.Fatalf("node %d: %d assignments for %d edges", u, len(vc.EdgeOf[u]), len(g.OutEdges(u)))
		}
		for i, p := range vc.EdgeOf[u] {
			if int(p) >= 8 {
				t.Fatalf("edge %d/%d on part %d", u, i, p)
			}
			// Both endpoints must be replicated on the edge's part.
			e := g.OutEdges(u)[i]
			if vc.replicas[u]&(1<<uint(p)) == 0 || vc.replicas[e.To]&(1<<uint(p)) == 0 {
				t.Fatalf("edge (%d,%d) on part %d lacks endpoint replicas", u, e.To, p)
			}
			totalAssigned++
		}
	}
	if totalAssigned != g.NumEdges() {
		t.Fatalf("assigned %d of %d edges", totalAssigned, g.NumEdges())
	}
}

func TestVertexCutReplicationReasonable(t *testing.T) {
	g := gen.BarabasiAlbert(800, 6, 4)
	vc, err := GreedyVertexCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	rf := vc.ReplicationFactor()
	if rf < 1 || rf > 8 {
		t.Fatalf("replication factor = %v", rf)
	}
	// Greedy must beat random edge placement by a clear margin. Random
	// placement on k=8 replicates high-degree nodes ~everywhere.
	if rf > 4.5 {
		t.Fatalf("replication factor %v too high for greedy placement", rf)
	}
	if b := vc.EdgeBalance(); b > 1.5 {
		t.Fatalf("edge balance = %v (loads %v)", b, vc.edgeLoad)
	}
}

func TestVertexCutHighDegreeSpread(t *testing.T) {
	// A star's centre must be replicated across parts (that is the point
	// of a vertex cut).
	g := graph.New()
	g.AddNodes(101)
	for i := 1; i <= 100; i++ {
		g.AddEdgeFast(0, graph.NodeID(i))
	}
	vc, err := GreedyVertexCut(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := vc.Replicas(0); got < 3 {
		t.Fatalf("star centre on %d parts, want >= 3 (spread under balance guard)", got)
	}
	// Leaves live on exactly one part.
	for i := 1; i <= 100; i++ {
		if got := vc.Replicas(graph.NodeID(i)); got != 1 {
			t.Fatalf("leaf %d on %d parts", i, got)
		}
	}
	if vc.Replicas(5000) != 0 {
		t.Fatal("out-of-range node has replicas")
	}
}

func BenchmarkLDG(b *testing.B) {
	g := gen.RMAT(gen.RMATOptions{Nodes: 20000, Edges: 100000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LDG(g, 12, 0.1)
	}
}

func BenchmarkGreedyVertexCut(b *testing.B) {
	g := gen.RMAT(gen.RMATOptions{Nodes: 20000, Edges: 100000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyVertexCut(g, 12); err != nil {
			b.Fatal(err)
		}
	}
}
