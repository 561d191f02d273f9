// Custom strategy example — the routing layer as an extension point: a
// user-defined strategy registered through grouting.RegisterStrategy
// routes queries on both transports (the in-process virtual-time engine
// and a real loopback TCP deployment) exactly like a built-in, and the
// Client.Stats() snapshot shows its per-processor placement on each.
//
// The strategy here routes by contiguous node-id bands — a stand-in for
// any domain knowledge you have about your graph's layout (tenant ranges,
// time-ordered ids, pre-sharded crawls). Because it is deterministic and
// ignores load, both transports produce identical per-processor
// assignment counts for the same query stream.
package main

import (
	"context"
	"fmt"
	"log"

	grouting "repro"
)

// bandStrategy sends node u to processor u / bandSize: contiguous id
// ranges stay together, so consecutive queries on nearby ids share a
// processor's cache.
type bandStrategy struct {
	bandSize uint64
}

func newBandStrategy(res grouting.StrategyResources) (grouting.Strategy, error) {
	if res.Graph == nil {
		return nil, fmt.Errorf("bands: need the graph to size the bands")
	}
	n := uint64(res.Graph.MaxNodeID())
	band := (n + uint64(res.Procs) - 1) / uint64(res.Procs)
	if band == 0 {
		band = 1
	}
	return &bandStrategy{bandSize: band}, nil
}

func (s *bandStrategy) Name() string { return "bands" }

func (s *bandStrategy) Pick(q grouting.Query, loads []int) int {
	p := int(uint64(q.Node) / s.bandSize)
	if p >= len(loads) {
		p = len(loads) - 1
	}
	return p
}

func (s *bandStrategy) Observe(grouting.Query, int) {} // stateless
func (s *bandStrategy) DecisionUnits() int          { return 1 }

// One registration covers every deployment shape: Config.Policy locally,
// RouterSpec.Policy over TCP, and groutingd -policy bands.
var policyBands = grouting.RegisterStrategy("bands", newBandStrategy)

func main() {
	ctx := context.Background()
	g := grouting.GenerateDataset(grouting.WebGraph, 0.03, 42)
	var names []string
	for _, s := range grouting.StrategyRegistry() {
		names = append(names, s.Name)
	}
	fmt.Printf("dataset: %d nodes, %d edges; registered strategies: %v\n",
		g.NumNodes(), g.NumEdges(), names)
	workload := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 10, QueriesPerHotspot: 10, R: 2, H: 2, Seed: 9,
	})

	// Transport 1: the virtual-time engine, resolving the strategy by name
	// as the daemons' -policy flags do.
	byName, err := grouting.ParsePolicy("bands")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := grouting.NewSystem(g, grouting.Config{Processors: 3, StorageServers: 2, Policy: byName})
	if err != nil {
		log.Fatal(err)
	}
	local, err := grouting.NewLocalClient(sys)
	if err != nil {
		log.Fatal(err)
	}
	run(ctx, "virtual-time", local, g, workload)

	// Transport 2: a real TCP deployment, selecting it by Policy value.
	var storageAddrs []string
	for i := 0; i < 2; i++ {
		ss, err := grouting.ServeStorage("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ss.Close()
		storageAddrs = append(storageAddrs, ss.Addr())
	}
	if err := grouting.LoadStorageReplicated(ctx, g, storageAddrs, 1); err != nil {
		log.Fatal(err)
	}
	var procAddrs []string
	for i := 0; i < 3; i++ {
		ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{Storage: storageAddrs, CacheBytes: 64 << 20})
		if err != nil {
			log.Fatal(err)
		}
		defer ps.Close()
		procAddrs = append(procAddrs, ps.Addr())
	}
	rs, err := grouting.ServeRouter("127.0.0.1:0", grouting.RouterSpec{
		Processors: procAddrs,
		Policy:     policyBands,
		Graph:      g, // the constructor sizes its bands from the graph
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	remote, err := grouting.Dial(ctx, rs.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()
	run(ctx, "tcp", remote, g, workload)
}

// run executes the workload through any Client, verifies every answer
// against the oracle, and prints the observability snapshot.
func run(ctx context.Context, name string, c grouting.Client, g *grouting.Graph, qs []grouting.Query) {
	for _, q := range qs {
		res, err := c.Execute(ctx, q)
		if err != nil {
			log.Fatalf("%s: query %d: %v", name, q.ID, err)
		}
		if res != grouting.Answer(g, q) {
			log.Fatalf("%s: query %d disagrees with the oracle", name, q.ID)
		}
	}
	snap, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== %s: %d queries, all verified ===\n%s", name, len(qs), snap.String())
}
