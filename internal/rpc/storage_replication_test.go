package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/topology"
)

// shardFor returns the primary of key's placement: the shard a read of it
// prefers while every shard is healthy.
func (sc *StorageClient) shardFor(key uint64) int {
	return sc.placement(key, nil)[0]
}

// startStorageShards brings up n shards and returns them with their
// addresses.
func startStorageShards(t *testing.T, n int) ([]*StorageServer, []string) {
	t.Helper()
	var servers []*StorageServer
	var addrs []string
	for i := 0; i < n; i++ {
		ss, err := NewStorageServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ss.Close() })
		servers = append(servers, ss)
		addrs = append(addrs, ss.Addr())
	}
	return servers, addrs
}

// TestStorageClientReplicatedFailover kills one of R=2 shards and checks
// MultiGet serves every record from the survivors, marking the dead shard
// down (per-replica health) and counting the failover.
func TestStorageClientReplicatedFailover(t *testing.T) {
	g := gen.ErdosRenyi(400, 2000, 11)
	servers, addrs := startStorageShards(t, 3)
	sc, err := DialStorageReplicated(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ctx := context.Background()
	if err := sc.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	ids := make([]graph.NodeID, 0, 400)
	for id := graph.NodeID(0); id < 400; id++ {
		ids = append(ids, id)
	}
	before, err := sc.MultiGet(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(ids) {
		t.Fatalf("got %d of %d records before failure", len(before), len(ids))
	}

	servers[0].Close()
	after, err := sc.MultiGet(ctx, ids)
	if err != nil {
		t.Fatalf("MultiGet across a dead replica: %v", err)
	}
	if len(after) != len(ids) {
		t.Fatalf("got %d of %d records after failure", len(after), len(ids))
	}
	for id, rec := range after {
		if len(rec.Out) != len(before[id].Out) || len(rec.In) != len(before[id].In) {
			t.Fatalf("node %d: record changed across failover", id)
		}
	}
	if sc.Failovers() == 0 {
		t.Fatal("failover not counted")
	}
	// Steady state: the dead shard is remembered as down, so repeated
	// reads pay no further failed round trips (health, not luck).
	f0 := sc.Failovers()
	if _, err := sc.MultiGet(ctx, ids); err != nil {
		t.Fatal(err)
	}
	if sc.Failovers() != f0 {
		t.Fatalf("steady-state reads still failing over (%d -> %d)", f0, sc.Failovers())
	}
}

// TestStorageClientUnreplicatedDies pins the R=1 contrast: a dead shard
// makes its keys unavailable with the typed error.
func TestStorageClientUnreplicatedDies(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 3)
	servers, addrs := startStorageShards(t, 2)
	sc, err := DialStorageReplicated(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ctx := context.Background()
	if err := sc.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	servers[1].Close()
	ids := make([]graph.NodeID, 0, 200)
	for id := graph.NodeID(0); id < 200; id++ {
		ids = append(ids, id)
	}
	out, err := sc.MultiGet(ctx, ids)
	if err == nil {
		t.Fatal("unreplicated MultiGet survived a dead shard")
	}
	if !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("error not typed unavailable: %v", err)
	}
	if len(out) == 0 || len(out) == len(ids) {
		t.Fatalf("got %d of %d: want a partial result from the survivor", len(out), len(ids))
	}
}

// TestStorageClientShardRecovery pins that the down flag is advisory and
// self-healing in every mode, including unreplicated: a shard that dies
// and comes back (same address) is re-admitted by the health probe and
// serves reads and writes again.
func TestStorageClientShardRecovery(t *testing.T) {
	servers, addrs := startStorageShards(t, 2)
	sc, err := DialStorageReplicated(addrs, 1) // replicas == 1: no failover to hide behind
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ctx := context.Background()
	rec := gstore.Encode(nil, &gstore.Record{Node: 7, NodeLabel: 3})
	for k := uint64(0); k < 50; k++ {
		if err := sc.PutBatch(ctx, []uint64{k}, [][]byte{rec}); err != nil {
			t.Fatal(err)
		}
	}
	victim := sc.shardFor(7)
	servers[victim].Close()
	ids := []graph.NodeID{7}
	if _, err := sc.MultiGet(ctx, ids); err == nil {
		t.Fatal("read off a dead sole replica succeeded")
	}
	// Restart the shard on the same address; the probe must re-admit it.
	restarted, err := NewStorageServer(addrs[victim])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := sc.PutBatch(ctx, []uint64{7}, [][]byte{rec}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never re-admitted after restart")
		}
		time.Sleep(probeBase / 2)
	}
	out, err := sc.MultiGet(ctx, ids)
	if err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if got, ok := out[7]; !ok || got.NodeLabel != 3 {
		t.Fatalf("key 7 after recovery = %+v, %v", got, ok)
	}
}

// TestGetBatchFollowsPinPastReplicas pins that a read follows a pin to its
// last slot even when the pin lists more slots than the client's R: an R = 1
// client whose 3-slot pin names two dead shards first still finds the record
// on the third, instead of reporting it absent with no error. A pin longer
// than MaxReplicas is ignored, so the key's own placement answers and the
// read ends.
func TestGetBatchFollowsPinPastReplicas(t *testing.T) {
	servers, addrs := startStorageShards(t, 3)
	sc, err := DialStorageReplicated(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Key 7 is stored only on shard 2; own is stored where it places, shard 2.
	if err := sc.putAt(ctx, 2, 7, gstore.Encode(nil, &gstore.Record{Node: 7, NodeLabel: 3})); err != nil {
		t.Fatal(err)
	}
	own := uint64(100)
	for sc.shardFor(own) != 2 {
		own++
	}
	if err := sc.PutBatch(ctx, []uint64{own}, [][]byte{gstore.Encode(nil, &gstore.Record{Node: graph.NodeID(own), NodeLabel: 5})}); err != nil {
		t.Fatal(err)
	}
	sc.SetOverrides(map[uint64][]int{
		7:   {0, 1, 2},
		own: {0, 1, 0, 1, 0, 1, 0, 1, 0},
	})
	servers[0].Close()
	servers[1].Close()

	out, err := sc.MultiGet(ctx, []graph.NodeID{7})
	if err != nil {
		t.Fatalf("read through a 3-slot pin: %v", err)
	}
	if got, ok := out[7]; !ok || got.NodeLabel != 3 {
		t.Fatalf("key 7 through its pin = %+v, %v; want the record on its third slot", got, ok)
	}
	out, err = sc.MultiGet(ctx, []graph.NodeID{graph.NodeID(own)})
	if err != nil {
		t.Fatalf("read under a %d-slot pin: %v", topology.MaxReplicas+1, err)
	}
	if got, ok := out[graph.NodeID(own)]; !ok || got.NodeLabel != 5 {
		t.Fatalf("key %d under an oversized pin = %+v, %v; want its own placement's record", own, got, ok)
	}
}

func TestDialStorageReplicatedValidation(t *testing.T) {
	_, addrs := startStorageShards(t, 2)
	if _, err := DialStorageReplicated(addrs, 3); err == nil {
		t.Fatal("more replicas than shards accepted")
	}
	if _, err := DialStorageReplicated(addrs, 0); err == nil {
		t.Fatal("0 replicas accepted")
	}
	if _, err := DialStorageReplicated(addrs, topology.MaxReplicas+1); err == nil {
		t.Fatal("replicas beyond MaxReplicas accepted")
	}
}

// TestStorageJoinDrain registers storage shards with a running router and
// checks the storage view, the tier-tagged epoch log, and clean leave.
func TestStorageJoinDrain(t *testing.T) {
	g := gen.LocalWeb(600, 8, 40, 0.01, 2)
	d, _ := startLoopback(t, g, core.Config{StorageServers: 2, StorageReplicas: 2, Processors: 1, Policy: core.PolicyHash})
	storageAddrs, rs := d.StorageAddrs(), d.router

	// A third shard joins the two the router was seeded with.
	extra, extraAddrs := startStorageShards(t, 1)
	slot, err := extra[0].Register(context.Background(), rs.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	if slot != 2 {
		t.Fatalf("joined storage slot = %d, want 2", slot)
	}
	if got := extra[0].RegisteredSlot(); got != 2 {
		t.Fatalf("RegisteredSlot = %d", got)
	}
	// Idempotent re-join.
	if again, err := extra[0].Register(context.Background(), rs.Addr(), extraAddrs[0]); err != nil || again != slot {
		t.Fatalf("re-join: slot %d err %v", again, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	snap, err := rs.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.StorageEpoch != 2 || snap.StorageReplicas != 2 {
		t.Fatalf("storage header: epoch %d replicas %d", snap.StorageEpoch, snap.StorageReplicas)
	}
	if len(snap.PerStorage) != 3 {
		t.Fatalf("%d storage rows, want 3", len(snap.PerStorage))
	}
	if snap.PerStorage[0].Addr != storageAddrs[0] || snap.PerStorage[0].Status != "active" {
		t.Fatalf("seeded storage row: %+v", snap.PerStorage[0])
	}
	if snap.PerStorage[0].Keys == 0 {
		t.Fatal("seeded storage row not polled for shard counters")
	}
	joined := false
	for _, e := range snap.Epochs {
		if e.Tier == "storage" && e.Joined == 1 {
			joined = true
		}
	}
	if !joined {
		t.Fatalf("storage join missing from epoch log: %+v", snap.Epochs)
	}

	// Clean leave.
	if err := extra[0].Deregister(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err = rs.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.PerStorage[2].Status != "left" {
		t.Fatalf("deregistered shard status = %q", snap.PerStorage[2].Status)
	}
}

// TestEnvelopeEncodedSizeWithStorage extends the wire-waste regression to
// the storage-bearing snapshot: the paper-scale 7-processor + 4-storage
// deployment's OpStats response, every counter populated, must stay under
// 1 KB (gob needed 1.5 KB) so a monitoring loop can poll it continuously.
func TestEnvelopeEncodedSizeWithStorage(t *testing.T) {
	snap := &metrics.Snapshot{
		Transport:       "tcp",
		Policy:          "embed",
		Strategy:        "embed",
		Processors:      7,
		Epoch:           9,
		Queries:         1234567,
		Stolen:          4321,
		Diverted:        17,
		Reassigned:      256,
		StorageEpoch:    5,
		StorageReplicas: 2,
		Epochs: []metrics.EpochEvent{
			{Tier: "proc", Epoch: 8, Joined: 2, Reassigned: 120},
			{Tier: "proc", Epoch: 9, Left: 1, Reassigned: 136},
			{Tier: "storage", Epoch: 4, Joined: 1},
			{Tier: "storage", Epoch: 5, Failed: 1},
		},
		RoutingNanos: metrics.Summary{Count: 1234567, Mean: 800, P50: 700, P95: 1600, P99: 3100, Max: 91000},
		QueueDepth:   metrics.Summary{Count: 1234567, Mean: 2, P50: 1, P95: 7, P99: 15, Max: 63},
	}
	for i := 0; i < 7; i++ {
		cc := metrics.CacheCounters{
			Hits: 4200000, Misses: 170000, Inserts: 170000,
			Evictions: 55000, CurrentBytes: 4 << 30, CapacityBytes: 4 << 30,
		}
		snap.PerProc = append(snap.PerProc, metrics.ProcCounters{
			Proc: i, Status: "active", Addr: "10.0.0.71:7101",
			Assigned: 17636, Executed: 17640, Stolen: 40, Diverted: 2,
			QueueDepth: 3, Cache: cc,
		})
		snap.Cache.Add(cc)
	}
	for i := 0; i < 4; i++ {
		snap.PerStorage = append(snap.PerStorage, metrics.StorageCounters{
			Slot: i, Status: "active", Addr: "10.0.0.81:7001",
			Keys: 15485863, Bytes: 4 << 30, Gets: 88123456, Misses: 12345, Failovers: 17,
		})
	}
	statsResp := &Response{OK: true, Stats: &Stats{Role: "router", Requests: 999999, Snapshot: snap}}
	if n := respFrameSize(t, statsResp); n > 1024 {
		t.Errorf("7-proc + 4-storage stats response frame encodes to %d bytes, want <= 1024", n)
	}

	// The write path's frames. A loader chunk — 300 records of 55 bytes, the
	// benchmark graph's mean, under keys of a 60 k-node graph — is its
	// payload plus a key and a length per record: within 8 % of the bytes it
	// stores, and inside the peer's read window. A one-record OpMultiPut —
	// every single-key write, the migration copy included — stays within
	// the 70 bytes the retired single-key put frame plus its two counts and
	// wider field bitmap came to.
	chunk := &Request{Op: OpMultiPut}
	rec := make([]byte, 55)
	for i := 0; i < 300; i++ {
		chunk.Keys = append(chunk.Keys, uint64(59000+i))
		chunk.Values = append(chunk.Values, rec)
	}
	if n, payload := reqFrameSize(t, chunk), 300*len(rec); n > payload+payload*8/100 || n > frameWindow {
		t.Errorf("300-record multiput frame encodes to %d bytes for %d bytes of records, want <= +8%% and <= the %d-byte read window", n, payload, frameWindow)
	}
	if n := reqFrameSize(t, &Request{Op: OpMultiPut, Keys: []uint64{59000}, Values: [][]byte{rec}}); n > 70 {
		t.Errorf("1-record multiput frame encodes to %d bytes, want <= 70", n)
	}
}
