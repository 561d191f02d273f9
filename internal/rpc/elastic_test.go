package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/topology"
)

// startElasticCluster builds storage + nProcs processors + router and
// returns the pieces needed to grow the tier at runtime.
func startElasticCluster(t *testing.T, g *graph.Graph, nProcs int, policy string) (*RouterServer, *RouterClient, []string) {
	t.Helper()
	var storageAddrs []string
	for i := 0; i < 2; i++ {
		ss, err := NewStorageServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ss.Close() })
		storageAddrs = append(storageAddrs, ss.Addr())
	}
	sc, err := DialStorageReplicated(storageAddrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.LoadGraph(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	sc.Close()

	var procAddrs []string
	for i := 0; i < nProcs; i++ {
		ps, err := NewProcessorServerWith("127.0.0.1:0", ProcessorConfig{Storage: storageAddrs, CacheBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Close() })
		procAddrs = append(procAddrs, ps.Addr())
	}
	strat, err := BuildStrategy(policy, g, nProcs, 7)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRouterServer("127.0.0.1:0", RouterConfig{ProcessorAddrs: procAddrs, Strategy: strat, PolicyName: policy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	cl, err := DialRouter(context.Background(), rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return rs, cl, storageAddrs
}

func TestJoinAdmitsProcessorAtRuntime(t *testing.T) {
	g := gen.LocalWeb(1200, 8, 60, 0.01, 4)
	rs, cl, storageAddrs := startElasticCluster(t, g, 2, "stablehash")
	ctx := context.Background()
	epochBefore := rs.Epoch()

	ps, err := NewProcessorServerWith("127.0.0.1:0", ProcessorConfig{Storage: storageAddrs, CacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	slot, err := ps.Register(ctx, rs.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	if slot != 2 {
		t.Fatalf("joined slot = %d, want 2", slot)
	}
	if rs.Epoch() <= epochBefore {
		t.Fatal("join did not bump the epoch")
	}
	// Re-joining the same address is idempotent: same slot, no new epoch.
	epoch := rs.Epoch()
	again, err := ps.Register(ctx, rs.Addr(), "")
	if err != nil || again != slot {
		t.Fatalf("re-join: slot=%d err=%v", again, err)
	}
	if rs.Epoch() != epoch {
		t.Fatal("idempotent re-join bumped the epoch")
	}

	// The joined processor receives work.
	qs := query.Hotspot(g, query.WorkloadSpec{NumHotspots: 20, QueriesPerHotspot: 10, R: 2, H: 2, Seed: 5})
	for _, q := range qs {
		res, err := cl.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res != query.Answer(g, q) {
			t.Fatalf("wrong result after join for query %d", q.ID)
		}
	}
	snap, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != rs.Epoch() || snap.Processors != 3 {
		t.Fatalf("snapshot epoch/processors = %d/%d", snap.Epoch, snap.Processors)
	}
	if snap.PerProc[slot].Status != "active" || snap.PerProc[slot].Addr != ps.Addr() {
		t.Fatalf("joined member row = %+v", snap.PerProc[slot])
	}
	if snap.PerProc[slot].Assigned == 0 || snap.PerProc[slot].Executed == 0 {
		t.Fatalf("joined member got no work: %+v", snap.PerProc[slot])
	}
	// The transition is in the epoch log.
	foundJoin := false
	for _, ev := range snap.Epochs {
		if ev.Joined > 0 {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Fatalf("no join event in epoch log: %+v", snap.Epochs)
	}
}

func TestJoinRejectsUnreachableAddress(t *testing.T) {
	g := gen.LocalWeb(600, 6, 40, 0.01, 4)
	rs, _, _ := startElasticCluster(t, g, 1, "nextready")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cn, err := DialContext(ctx, rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if _, err := cn.Call(ctx, &Request{Op: OpJoin, Addr: "127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable processor admitted")
	}
	if _, err := cn.Call(ctx, &Request{Op: OpJoin}); err == nil {
		t.Fatal("empty join address accepted")
	}
	if rs.View().Slots() != 1 {
		t.Fatal("failed joins grew the membership")
	}
}

func TestDrainRemovesProcessorCleanly(t *testing.T) {
	g := gen.LocalWeb(1200, 8, 60, 0.01, 4)
	rs, cl, _ := startElasticCluster(t, g, 3, "stablehash")
	ctx := context.Background()
	qs := query.Hotspot(g, query.WorkloadSpec{NumHotspots: 10, QueriesPerHotspot: 5, R: 2, H: 2, Seed: 5})
	for _, q := range qs[:len(qs)/2] {
		if _, err := cl.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	cn, err := DialContext(ctx, rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	resp, err := cn.Call(ctx, &Request{Op: OpDrain, Proc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Proc != 1 || resp.Epoch <= 1 {
		t.Fatalf("drain response = %+v", resp)
	}
	// Idle at drain time: the member departs immediately.
	if st := rs.View().Status(1); st != topology.Left {
		t.Fatalf("drained member status = %v, want left", st)
	}

	// Queries keep working and never touch the departed member.
	executedBefore := int64(-1)
	if snap, err := cl.Stats(ctx); err == nil {
		executedBefore = snap.PerProc[1].Executed
	}
	for _, q := range qs[len(qs)/2:] {
		res, err := cl.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res != query.Answer(g, q) {
			t.Fatalf("wrong result after drain for query %d", q.ID)
		}
	}
	snap, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Processors != 2 || snap.PerProc[1].Status != "left" {
		t.Fatalf("post-drain snapshot: procs=%d status=%q", snap.Processors, snap.PerProc[1].Status)
	}
	if snap.PerProc[1].Executed != executedBefore {
		t.Fatalf("departed member kept executing: %d -> %d", executedBefore, snap.PerProc[1].Executed)
	}
	// Draining an unknown member errors with the typed bad-query code.
	if _, err := cn.Call(ctx, &Request{Op: OpDrain, Proc: 99}); !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("drain of unknown slot: %v", err)
	}
}

func TestExecuteResponseCarriesEpoch(t *testing.T) {
	g := gen.LocalWeb(600, 6, 40, 0.01, 4)
	rs, _, _ := startElasticCluster(t, g, 2, "nextready")
	ctx := context.Background()
	cn, err := DialContext(ctx, rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	q := query.Query{Type: query.NeighborAgg, Node: 1, Hops: 1, Dir: graph.Out}
	resp, err := cn.Call(ctx, execRequest(ctx, []query.Query{q}))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != rs.Epoch() {
		t.Fatalf("execute response epoch = %d, want %d", resp.Epoch, rs.Epoch())
	}
}
