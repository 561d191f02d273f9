// Cross-transport tests for the replicated storage tier: the same
// workload answers oracle-identically with R=1 and R=2 storage, and —
// the tentpole acceptance — killing one of R=2 replicas mid-workload
// loses zero queries on both the virtual-time and TCP transports. Run
// with -race in CI: the kill lands concurrently with query execution.
package grouting_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	grouting "repro"
	"repro/internal/rpc"
)

func storageWorkload(g *grouting.Graph, seed int64) []grouting.Query {
	return grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 12, QueriesPerHotspot: 8, R: 2, H: 2, Seed: seed,
	})
}

// TestCrossTransportReplicationEquivalence runs one workload four ways —
// {R=1, R=2} × {virtual-time, TCP} — and requires oracle-identical
// results from every cell.
func TestCrossTransportReplicationEquivalence(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.03, 11)
	qs := storageWorkload(g, 23)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	cells := map[string][]grouting.Result{}
	for _, replicas := range []int{1, 2} {
		local, remote := twoTransports(t, g, grouting.Config{
			Policy: grouting.PolicyHash, Processors: 3, StorageServers: 3, StorageReplicas: replicas, Seed: 1,
		})
		for name, cl := range map[string]grouting.Client{"local": local, "tcp": remote} {
			out, err := cl.ExecuteBatch(ctx, qs)
			if err != nil {
				t.Fatal(err)
			}
			cells[fmt.Sprintf("%s-R%d", name, replicas)] = out
		}
	}
	for i, q := range qs {
		want := grouting.Answer(g, q)
		for name, res := range cells {
			if res[i] != want {
				t.Fatalf("%s query %d: %v, oracle %v", name, i, res[i], want)
			}
		}
	}
}

// TestKillReplicaMidWorkloadLocal is the virtual-time half of the
// acceptance criterion: with R=2, a storage failure injected concurrently
// with execution loses zero queries and every answer stays exact.
func TestKillReplicaMidWorkloadLocal(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.03, 11)
	qs := storageWorkload(g, 29)
	sys, err := grouting.NewSystem(g, grouting.Config{
		Policy:          grouting.PolicyHash,
		Processors:      3,
		StorageServers:  3,
		StorageReplicas: 2,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := sys.FailStorage(2); err != nil {
			t.Errorf("FailStorage: %v", err)
		}
	}()
	for i, q := range qs {
		res, err := cl.Execute(ctx, q)
		if err != nil {
			t.Fatalf("query %d lost across the replica kill: %v", i, err)
		}
		if res != grouting.Answer(g, q) {
			t.Fatalf("query %d answered wrongly across the replica kill", i)
		}
	}
	wg.Wait()

	// The storage view reflects the failure on the public Stats surface.
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StorageReplicas != 2 || len(stats.PerStorage) != 3 {
		t.Fatalf("stats storage section: replicas %d, %d members", stats.StorageReplicas, len(stats.PerStorage))
	}
	if stats.PerStorage[2].Status != "down" {
		t.Fatalf("killed member status = %q", stats.PerStorage[2].Status)
	}
}

// TestKillReplicaMidWorkloadTCP is the networked half: one of the R=2
// storage shards is hard-closed (listener and live connections) while the
// client streams queries; the processors' replica failover must keep
// every answer exact with zero failures.
func TestKillReplicaMidWorkloadTCP(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.03, 11)
	qs := storageWorkload(g, 31)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	cl, d := startLoopback(t, g, grouting.Config{
		Policy: grouting.PolicyHash, Processors: 2, StorageServers: 3, StorageReplicas: 2, CacheBytes: 32 << 20,
	})

	kill := len(qs) / 3
	for i, q := range qs {
		if i == kill {
			if err := d.KillStorage(0); err != nil {
				t.Fatal(err)
			}
		}
		res, err := cl.Execute(ctx, q)
		if err != nil {
			t.Fatalf("query %d lost across the shard kill: %v", i, err)
		}
		if res != grouting.Answer(g, q) {
			t.Fatalf("query %d answered wrongly across the shard kill", i)
		}
	}
}

// TestDurableCrashRestartLocal pins the public durability surface on the
// virtual-time transport: with Config.StorageDir, a crashed shard whose log
// has compacted restarts warm from its WAL directory mid-workload and every
// answer stays exact.
func TestDurableCrashRestartLocal(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.03, 11)
	qs := storageWorkload(g, 41)
	sys, err := grouting.NewSystem(g, grouting.Config{
		Policy:          grouting.PolicyHash,
		Processors:      3,
		StorageServers:  3,
		StorageReplicas: 2,
		StorageDir:      t.TempDir(),
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Grow a node's record by 300 edges and shrink it back, node after
	// node, until shard 1 has cleaned its records and compacted its log:
	// the crash below then replays a compacted image and the tail behind
	// it. The graph ends as it began, so the oracle still answers from g.
	for u := grouting.NodeID(0); ; u++ {
		stats, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.PerStorage[1].Snapshots > 0 {
			break
		}
		if int(u) == g.NumNodes() || u == 64 {
			t.Fatal("shard 1 never compacted its log")
		}
		if !g.Exists(u) || g.OutDegree(u) == 0 {
			continue
		}
		label := g.Labels().String(g.OutEdges(u)[0].Label)
		var add, remove []grouting.Mutation
		for v := grouting.NodeID(0); v < g.MaxNodeID() && len(add) < 300; v++ {
			if v != u && g.Exists(v) && !g.HasEdge(u, v) {
				add = append(add, grouting.Mutation{Op: grouting.MutAddEdge, Node: u, To: v, Label: label})
				remove = append(remove, grouting.Mutation{Op: grouting.MutRemoveEdge, Node: u, To: v})
			}
		}
		for _, muts := range [][]grouting.Mutation{add, remove} {
			if n, err := cl.Mutate(ctx, muts); err != nil {
				t.Fatalf("node %d: %d of %d mutations applied: %v", u, n, len(muts), err)
			}
		}
	}

	crash, restart := len(qs)/3, 2*len(qs)/3
	for i, q := range qs {
		if i == crash {
			if err := sys.CrashStorage(1); err != nil {
				t.Fatalf("CrashStorage: %v", err)
			}
		}
		if i == restart {
			if err := sys.RestartStorage(1); err != nil {
				t.Fatalf("RestartStorage: %v", err)
			}
		}
		res, err := cl.Execute(ctx, q)
		if err != nil {
			t.Fatalf("query %d lost across crash/restart: %v", i, err)
		}
		if res != grouting.Answer(g, q) {
			t.Fatalf("query %d answered wrongly across crash/restart", i)
		}
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PerStorage[1].Durable != "warm" {
		t.Fatalf("restarted shard durability = %q, want warm", stats.PerStorage[1].Durable)
	}
	if stats.PerStorage[0].Durable != "fresh" && stats.PerStorage[0].Durable != "warm" {
		t.Fatalf("surviving shard durability = %q", stats.PerStorage[0].Durable)
	}
}

// TestLoadStorageZeroReplicas pins the loader's zero value: a factor of 0
// reads as 1, as ProcessorSpec's and RouterSpec's do, so every record it
// loads reads back through an R = 1 storage client.
func TestLoadStorageZeroReplicas(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var storageAddrs []string
	for i := 0; i < 2; i++ {
		ss, err := grouting.ServeStorage("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		storageAddrs = append(storageAddrs, ss.Addr())
	}
	if err := grouting.LoadStorageReplicated(ctx, g, storageAddrs, 0); err != nil {
		t.Fatalf("load with 0 replicas: %v", err)
	}
	sc, err := rpc.DialStorageReplicated(storageAddrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	recs, err := sc.MultiGet(ctx, g.Nodes())
	if err != nil || len(recs) != g.NumNodes() {
		t.Fatalf("read back %d of %d records: %v", len(recs), g.NumNodes(), err)
	}
}

// TestUnreplicatedTCPLosesQueries pins the contrast the storagefault
// experiment quantifies: without replication, killing a shard makes its
// keys' queries fail with the typed unavailable error (never a wrong
// answer).
func TestUnreplicatedTCPLosesQueries(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.03, 11)
	qs := storageWorkload(g, 37)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	cl, d := startLoopback(t, g, grouting.Config{Policy: grouting.PolicyHash, Processors: 1, StorageServers: 2, CacheBytes: 32 << 20})
	if err := d.KillStorage(1); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, q := range qs {
		res, err := cl.Execute(ctx, q)
		if err != nil {
			if !errors.Is(err, grouting.ErrUnavailable) {
				t.Fatalf("query %d failed untyped: %v", i, err)
			}
			failed++
			continue
		}
		if res != grouting.Answer(g, q) {
			t.Fatalf("query %d answered wrongly on a half-dead tier", i)
		}
	}
	if failed == 0 {
		t.Fatal("no query touched the dead shard — test is vacuous")
	}
}
