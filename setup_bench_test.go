package grouting_test

import (
	"bytes"
	"context"
	"testing"

	grouting "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
)

// BenchmarkSetupPhases times, one sub-benchmark each, the passes over the
// whole graph that bringing up the benchmark's deployment makes on its 60 k
// -node WebGraph preset: generating the dataset, encoding every record,
// bulk-loading it into two in-process shards at R = 1 and into two durable
// ones (WAL, no fsync) at R = 2, and the router's read of the adjacency
// file. The loads start on fresh shards each time, their start and stop
// untimed. `make setupbench` runs it.
func BenchmarkSetupPhases(b *testing.B) {
	const seed = 3
	g := grouting.GenerateDataset(grouting.WebGraph, 1.0, seed)
	b.Run("generate", func(b *testing.B) {
		for b.Loop() {
			grouting.GenerateDataset(grouting.WebGraph, 1.0, seed)
		}
	})
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		for b.Loop() {
			for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
				if g.Exists(id) {
					buf = gstore.Encode(buf[:0], gstore.RecordOf(g, id))
				}
			}
		}
	})
	for _, load := range []struct {
		name     string
		replicas int
		durable  bool
	}{{"load-r1", 1, false}, {"load-r2-durable", 2, true}} {
		b.Run(load.name, func(b *testing.B) {
			for range b.N {
				b.StopTimer()
				addrs, stop := startShards(b, load.durable)
				b.StartTimer()
				if err := grouting.LoadStorageReplicated(context.Background(), g, addrs, load.replicas); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				stop()
				b.StartTimer()
			}
		})
	}
	var file bytes.Buffer
	if err := gen.WriteAdjacency(&file, g); err != nil {
		b.Fatal(err)
	}
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(file.Len()))
		for b.Loop() {
			if _, err := gen.ReadAdjacency(bytes.NewReader(file.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// startShards starts two storage shards, durable over fresh directories
// when asked, and returns their addresses and what stops them.
func startShards(b *testing.B, durable bool) ([]string, func()) {
	var servers []*grouting.StorageServer
	for range 2 {
		var ss *grouting.StorageServer
		var err error
		if durable {
			ss, err = grouting.ServeStorageDurable("127.0.0.1:0", b.TempDir(), false)
		} else {
			ss, err = grouting.ServeStorage("127.0.0.1:0")
		}
		if err != nil {
			b.Fatal(err)
		}
		servers = append(servers, ss)
	}
	return []string{servers[0].Addr(), servers[1].Addr()}, func() {
		for _, ss := range servers {
			ss.Close()
		}
	}
}
