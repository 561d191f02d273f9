// Distributed example — same code, two transports: one client function
// written against the transport-agnostic grouting.Client interface runs
// first on the in-process virtual-time system, then against a complete
// networked deployment on localhost (two storage shards, three query
// processors and a landmark router, all real TCP daemons), with every
// answer verified against the in-memory oracle.
//
// The TCP topology here is the same one cmd/groutingd runs across
// machines; clients there connect with grouting.Dial exactly as below.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	grouting "repro"
)

// runWorkload is written once against grouting.Client and never knows
// which transport it drives: per-query Execute for the first half, one
// pipelined ExecuteBatch round trip for the rest.
func runWorkload(ctx context.Context, c grouting.Client, g *grouting.Graph, qs []grouting.Query) (time.Duration, error) {
	start := time.Now()
	half := len(qs) / 2
	for _, q := range qs[:half] {
		res, err := c.Execute(ctx, q)
		if err != nil {
			return 0, err
		}
		if res != grouting.Answer(g, q) {
			return 0, fmt.Errorf("query %d disagrees with oracle", q.ID)
		}
	}
	results, err := c.ExecuteBatch(ctx, qs[half:])
	if err != nil {
		return 0, err
	}
	for i, q := range qs[half:] {
		if results[i] != grouting.Answer(g, q) {
			return 0, fmt.Errorf("batched query %d disagrees with oracle", q.ID)
		}
	}
	return time.Since(start), nil
}

func main() {
	ctx := context.Background()
	g := grouting.GenerateDataset(grouting.WebGraph, 0.03, 42)
	fmt.Printf("dataset: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	workload := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 10, QueriesPerHotspot: 10, R: 2, H: 2, Seed: 9,
	})

	// Transport 1: the in-process virtual-time engine.
	sys, err := grouting.New(g,
		grouting.WithProcessors(3),
		grouting.WithStorageServers(2),
		grouting.WithPolicy(grouting.PolicyLandmark),
		grouting.WithLandmarks(16),
		grouting.WithMinSeparation(2),
		grouting.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}
	local, err := grouting.NewLocalClient(sys)
	if err != nil {
		log.Fatal(err)
	}
	elapsed, err := runWorkload(ctx, local, g, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("virtual-time transport: %d queries in %v, all verified\n", len(workload), elapsed.Round(time.Millisecond))

	// Transport 2: a real TCP deployment on localhost.
	var storageAddrs []string
	for i := 0; i < 2; i++ {
		ss, err := grouting.ServeStorage("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ss.Close()
		storageAddrs = append(storageAddrs, ss.Addr())
	}
	start := time.Now()
	if err := grouting.LoadStorageReplicated(ctx, g, storageAddrs, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded into %d shards in %v\n", len(storageAddrs), time.Since(start).Round(time.Millisecond))

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
		Policy:     grouting.PolicyLandmark,
		Graph:      g,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	fmt.Printf("deployment: router %s -> %d processors -> %d storage shards\n",
		rs.Addr(), len(procAddrs), len(storageAddrs))

	remote, err := grouting.Dial(ctx, rs.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()

	// The exact same function, now over TCP.
	elapsed, err = runWorkload(ctx, remote, g, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tcp transport: %d queries in %v (%.0f q/s), all verified against the oracle\n",
		len(workload), elapsed.Round(time.Millisecond), float64(len(workload))/elapsed.Seconds())
}
