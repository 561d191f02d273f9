// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 4) at the Quick scale, plus micro-benchmarks of the query path.
//
//	go test -bench=. -benchmem                 # everything, quick scale
//	go test -bench=BenchmarkFig8a              # one figure
//	go run ./cmd/grouting-bench -run all -scale full   # paper-scale runs
//
// Each BenchmarkFigXX / BenchmarkTableX iteration performs one complete
// experiment (graph generation, preprocessing, workload execution across
// every configuration the figure sweeps).
package grouting_test

import (
	"testing"

	grouting "repro"
	"repro/internal/embed"
	"repro/internal/experiments"
	"repro/internal/gstore"
	"repro/internal/kvstore"
	"repro/internal/landmark"
)

// benchExperiment runs the registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Quick); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// Tables.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// Figure 7: throughput vs SEDGE/Giraph and PowerGraph.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// Figure 8: scalability of the processing and storage tiers.
func BenchmarkFig8a(b *testing.B) { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B) { benchExperiment(b, "fig8b") }
func BenchmarkFig8c(b *testing.B) { benchExperiment(b, "fig8c") }

// Figure 9: cache capacity.
func BenchmarkFig9a(b *testing.B) { benchExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B) { benchExperiment(b, "fig9b") }
func BenchmarkFig9c(b *testing.B) { benchExperiment(b, "fig9c") }

// Figure 10: robustness to graph updates.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// Figure 11: load factor and smoothing parameter.
func BenchmarkFig11a(b *testing.B) { benchExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchExperiment(b, "fig11b") }

// Figure 12: embedding dimensionality.
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }

// Figure 13: landmark count and separation.
func BenchmarkFig13a(b *testing.B) { benchExperiment(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { benchExperiment(b, "fig13b") }

// Figures 14-16: hotspot radius, traversal depth, other datasets.
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// Ablations beyond the paper.
func BenchmarkAblationStealing(b *testing.B)  { benchExperiment(b, "ablation-stealing") }
func BenchmarkAblationPartition(b *testing.B) { benchExperiment(b, "ablation-partition") }
func BenchmarkAblationBatch(b *testing.B)     { benchExperiment(b, "ablation-batch") }

// Elasticity and fault-tolerance experiments beyond the paper.
func BenchmarkElastic(b *testing.B)      { benchExperiment(b, "elastic") }
func BenchmarkStorageFault(b *testing.B) { benchExperiment(b, "storagefault") }

// benchFetchBatch measures the storage tier's batched fetch path on a
// warm store (the per-frontier hot path of every query).
func benchFetchBatch(b *testing.B, st *kvstore.Store) {
	b.Helper()
	g := grouting.GenerateDataset(grouting.WebGraph, 0.05, 42)
	gstore.Load(st, g)
	tier := gstore.NewTier(st)
	ids := make([]grouting.NodeID, 64)
	for i := range ids {
		ids[i] = grouting.NodeID(uint32(i*131) % uint32(g.NumNodes()))
	}
	dst := make([]gstore.FetchResult, len(ids))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tier.FetchBatchInto(ids, dst, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchBatch is the R=1 hot-path baseline (PR 1's
// allocation-free work: only the decoded records allocate).
func BenchmarkFetchBatch(b *testing.B) {
	st, err := kvstore.New(4, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchFetchBatch(b, st)
}

// BenchmarkFetchBatchReplicated is the benchmark guard for the tentpole:
// the R=2 happy path (rendezvous replica placement + health checks, no
// faults) must stay within 6 allocs/op of the R=1 hot path. The paired
// regression test lives in internal/gstore (TestFetchBatchReplicatedAllocs);
// this benchmark tracks the time and allocation trajectory.
func BenchmarkFetchBatchReplicated(b *testing.B) {
	st, err := kvstore.NewStore(4, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchFetchBatch(b, st)
}

// Micro-benchmarks: the per-query execution path under each policy on a
// warm system (graph generation and preprocessing excluded).
func benchQueryPath(b *testing.B, policy grouting.Policy) {
	b.Helper()
	g := grouting.GenerateDataset(grouting.WebGraph, 0.05, 42)
	sys, err := grouting.NewSystem(g, grouting.Config{
		Processors: 4, StorageServers: 2, Policy: policy,
		Landmarks: 16, MinSeparation: 2, Dimensions: 6, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := grouting.Query{
			Type: grouting.NeighborAgg,
			Node: grouting.NodeID(uint32(i*97) % uint32(g.NumNodes())),
			Hops: 2, Dir: grouting.Out,
		}
		if _, _, err := ses.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunWorkload measures the full engine loop (routing, stealing,
// virtual timelines, cache churn) per query type on a fixed mid-size
// graph. One iteration is one complete cold-cache workload run of 256
// queries, so allocs/op regressions in the hot path are directly visible
// in the bench trajectory.
func BenchmarkRunWorkload(b *testing.B) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.1, 7)
	sys, err := grouting.NewSystem(g, grouting.Config{
		Processors: 4, StorageServers: 2, Policy: grouting.PolicyEmbed,
		Landmarks: 16, MinSeparation: 2, Dimensions: 6, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := uint32(g.NumNodes())
	for _, bench := range []struct {
		name string
		mk   func(i int) grouting.Query
	}{
		{"NeighborAgg", func(i int) grouting.Query {
			return grouting.Query{Type: grouting.NeighborAgg, Node: grouting.NodeID(uint32(i*131) % n), Hops: 2, Dir: grouting.Out}
		}},
		{"RandomWalk", func(i int) grouting.Query {
			return grouting.Query{Type: grouting.RandomWalk, Node: grouting.NodeID(uint32(i*131) % n), Hops: 8, RestartProb: 0.15, Dir: grouting.Out, Seed: int64(i)}
		}},
		{"Reachability", func(i int) grouting.Query {
			return grouting.Query{Type: grouting.Reachability, Node: grouting.NodeID(uint32(i*131) % n), Target: grouting.NodeID(uint32(i*977+13) % n), Hops: 4}
		}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			qs := make([]grouting.Query, 256)
			for i := range qs {
				qs[i] = bench.mk(i)
				qs[i].ID = i
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.RunWorkload(qs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEmbedBuild is the networked router's embedding recipe (32
// landmarks at least 2 hops apart, 8 dimensions) over a 6,000-node WebGraph:
// one iteration is one embed.Build, and ns/node is what it costs here.
func BenchmarkEmbedBuild(b *testing.B) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.1, 7)
	idx := landmark.BuildIndex(g, landmark.Select(g, 32, 2), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embed.Build(g, idx, embed.Options{Dimensions: 8, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumNodes()), "ns/node")
}

func BenchmarkQueryNoCache(b *testing.B)  { benchQueryPath(b, grouting.PolicyNoCache) }
func BenchmarkQueryHash(b *testing.B)     { benchQueryPath(b, grouting.PolicyHash) }
func BenchmarkQueryLandmark(b *testing.B) { benchQueryPath(b, grouting.PolicyLandmark) }
func BenchmarkQueryEmbed(b *testing.B)    { benchQueryPath(b, grouting.PolicyEmbed) }
