package baseline

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/simnet"
)

func testGraph() *graph.Graph {
	return gen.BarabasiAlbert(600, 4, 11)
}

func testWorkload(g *graph.Graph) []query.Query {
	return query.Hotspot(g, query.WorkloadSpec{
		NumHotspots: 10, QueriesPerHotspot: 5, R: 2, H: 2, Seed: 3,
	})
}

func TestNewValidation(t *testing.T) {
	g := testGraph()
	if _, err := NewBSP(g, 0, simnet.Ethernet()); err == nil {
		t.Fatal("BSP accepted 0 machines")
	}
	if _, err := NewGAS(g, 0, simnet.Ethernet()); err == nil {
		t.Fatal("GAS accepted 0 machines")
	}
}

func TestBSPResultsMatchOracle(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	b, err := NewBSP(g, 12, simnet.Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if rep.Results[q.ID] != query.Answer(g, q) {
			t.Fatalf("BSP query %d wrong", q.ID)
		}
	}
	if rep.Supersteps == 0 {
		t.Fatal("no supersteps recorded")
	}
	if rep.ThroughputQPS <= 0 {
		t.Fatalf("throughput = %v", rep.ThroughputQPS)
	}
	if rep.PartitionQuality <= 0 || rep.PartitionQuality >= 1 {
		t.Fatalf("cut fraction = %v", rep.PartitionQuality)
	}
}

func TestGASResultsMatchOracle(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	p, err := NewGAS(g, 12, simnet.Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if rep.Results[q.ID] != query.Answer(g, q) {
			t.Fatalf("GAS query %d wrong", q.ID)
		}
	}
	if rep.PartitionQuality < 1 {
		t.Fatalf("replication factor = %v", rep.PartitionQuality)
	}
}

func TestGASFasterThanBSP(t *testing.T) {
	// PowerGraph beats Giraph in Figure 7 on every dataset.
	g := testGraph()
	qs := testWorkload(g)
	b, err := NewBSP(g, 12, simnet.Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewGAS(g, 12, simnet.Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := p.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	if rp.ThroughputQPS <= rb.ThroughputQPS {
		t.Fatalf("GAS %.2f q/s <= BSP %.2f q/s", rp.ThroughputQPS, rb.ThroughputQPS)
	}
}

func TestDecoupledBeatsBaselines(t *testing.T) {
	// The headline Figure 7 ordering: gRouting (even over Ethernet)
	// outperforms both coupled systems on the hotspot workload.
	g := testGraph()
	qs := testWorkload(g)

	b, err := NewBSP(g, 12, simnet.Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := core.NewSystem(g, core.Config{
		Processors: 7, StorageServers: 4, Policy: core.PolicyEmbed,
		Network: simnet.Ethernet(), Landmarks: 8, MinSeparation: 1,
		Dimensions: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := sys.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	if rg.ThroughputQPS <= rb.ThroughputQPS {
		t.Fatalf("gRouting-E %.2f q/s <= SEDGE/BSP %.2f q/s", rg.ThroughputQPS, rb.ThroughputQPS)
	}
}

func TestBSPBarrierDominatesWalks(t *testing.T) {
	// Random walks are sequential: every step is a superstep paying a full
	// barrier, which is why vertex-centric systems are terrible at them.
	g := testGraph()
	b, err := NewBSP(g, 12, simnet.Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	walk := query.Query{ID: 0, Type: query.RandomWalk, Node: 5, Hops: 10, Dir: graph.Both, Seed: 1}
	d, steps, _ := b.waveCost([]query.Query{walk})
	if steps == 0 {
		t.Fatal("no steps")
	}
	if d < time.Duration(steps)*b.prof.BarrierOverhead {
		t.Fatalf("walk cost %v below %d barriers", d, steps)
	}
}

func TestDegenerateQueriesStillCost(t *testing.T) {
	g := testGraph()
	b, err := NewBSP(g, 4, simnet.Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewGAS(g, 4, simnet.Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	self := query.Query{ID: 0, Type: query.Reachability, Node: 3, Target: 3, Hops: 2}
	if d, _, _ := b.waveCost([]query.Query{self}); d <= 0 {
		t.Fatal("BSP self-query free")
	}
	if d, _, _ := p.waveCost([]query.Query{self}); d <= 0 {
		t.Fatal("GAS self-query free")
	}
}
