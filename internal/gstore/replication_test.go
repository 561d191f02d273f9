package gstore

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kvstore"
)

func newReplicatedTier(t *testing.T, servers, replicas int) (*Tier, *graph.Graph) {
	t.Helper()
	g := gen.ErdosRenyi(300, 1500, 4)
	st, err := kvstore.NewStore(servers, replicas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total := Load(st, g); total <= 0 {
		t.Fatalf("Load returned %d bytes", total)
	}
	return NewTier(st), g
}

// TestFetchBatchIntoSurvivesReplicaFailure pins the tentpole property at
// the tier level: after one of R=2 replicas fails, every record is still
// fetched and decoded identically.
func TestFetchBatchIntoSurvivesReplicaFailure(t *testing.T) {
	tier, g := newReplicatedTier(t, 3, 2)
	ids := make([]graph.NodeID, 0, 300)
	for id := graph.NodeID(0); id < 300; id++ {
		ids = append(ids, id)
	}
	before := make([]FetchResult, len(ids))
	if err := tier.FetchBatchInto(ids, before, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.Store().FailServer(0); err != nil {
		t.Fatal(err)
	}
	after := make([]FetchResult, len(ids))
	if err := tier.FetchBatchInto(ids, after, nil); err != nil {
		t.Fatalf("fetch after replica failure: %v", err)
	}
	for i, id := range ids {
		if !after[i].OK || !reflect.DeepEqual(after[i], before[i]) {
			t.Fatalf("node %d: result changed across failure (%+v vs %+v)", id, after[i], before[i])
		}
		if len(after[i].Record.Out) != g.OutDegree(id) {
			t.Fatalf("node %d: %d out-edges after failure, want %d", id, len(after[i].Record.Out), g.OutDegree(id))
		}
	}
}

// TestFetchBatchIntoHookMayFailServer fails a server from inside the
// onBatch hook: hooks run after the store's read lock is released, so the
// membership transition neither deadlocks nor fails the read in flight,
// and the next read is served in full from the surviving replicas.
func TestFetchBatchIntoHookMayFailServer(t *testing.T) {
	tier, _ := newReplicatedTier(t, 3, 2)
	st := tier.Store()
	ids := []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	want := make([]FetchResult, len(ids))
	if err := tier.FetchBatchInto(ids, want, nil); err != nil {
		t.Fatal(err)
	}
	dst := make([]FetchResult, len(ids))
	failed := -1
	err := tier.FetchBatchInto(ids, dst, func(b kvstore.Batch, bytes int64) {
		if failed < 0 {
			failed = b.Server
			if _, ferr := st.FailServer(b.Server); ferr != nil {
				t.Fatalf("fail %d: %v", b.Server, ferr)
			}
		}
	})
	if err != nil {
		t.Fatalf("fetch with a server failed from its hook: %v", err)
	}
	if failed < 0 {
		t.Fatal("hook never ran")
	}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("the read in flight when server %d failed differs from the one before", failed)
	}
	clear(dst)
	err = tier.FetchBatchInto(ids, dst, func(b kvstore.Batch, bytes int64) {
		if bytes < 0 || b.Server == failed {
			t.Errorf("batch on server %d (failed: %d) shipped %d bytes", b.Server, failed, bytes)
		}
	})
	if err != nil {
		t.Fatalf("fetch after server %d failed: %v", failed, err)
	}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("the read after server %d failed differs from the one before", failed)
	}
}

// TestFetchBatchIntoNoLiveReplica pins the R=1 behaviour: keys whose sole
// replica is down fail the fetch with kvstore.ErrNoLiveReplica, while
// keys on surviving servers still come back decoded, and the failed
// batch is reported to onBatch as a burned attempt (bytes == -1).
func TestFetchBatchIntoNoLiveReplica(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 7)
	st, err := kvstore.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	Load(st, g)
	tier := NewTier(st)
	if _, err := st.FailServer(1); err != nil {
		t.Fatal(err)
	}
	ids := make([]graph.NodeID, 0, 200)
	for id := graph.NodeID(0); id < 200; id++ {
		ids = append(ids, id)
	}
	dst := make([]FetchResult, len(ids))
	sawBurn := false
	err = tier.FetchBatchInto(ids, dst, func(b kvstore.Batch, bytes int64) {
		if bytes < 0 {
			sawBurn = true
			if b.Server != 1 {
				t.Fatalf("burned attempt on server %d, want 1", b.Server)
			}
		}
	})
	if !errors.Is(err, kvstore.ErrNoLiveReplica) {
		t.Fatalf("err = %v, want ErrNoLiveReplica", err)
	}
	if !sawBurn {
		t.Fatal("failed batch not reported to onBatch")
	}
	served, lost := 0, 0
	for i, id := range ids {
		if dst[i].OK {
			served++
			if len(dst[i].Record.Out) != g.OutDegree(id) {
				t.Fatalf("node %d decoded wrongly on the surviving server", id)
			}
		} else {
			lost++
		}
	}
	if served == 0 || lost == 0 {
		t.Fatalf("served=%d lost=%d: expected a mix across a half-dead tier", served, lost)
	}
}

// TestFetchBatchReplicatedAllocs is the benchmark guard for the R=2 happy
// path: replica placement runs on fixed-size stack scratch, so a
// replicated fetch may cost at most a handful of allocations more than
// the R=1 hot path (which pays one allocation per decoded record).
func TestFetchBatchReplicatedAllocs(t *testing.T) {
	measure := func(tier *Tier, ids []graph.NodeID, dst []FetchResult) float64 {
		// Warm the pooled scratch so steady-state allocations are measured.
		if err := tier.FetchBatchInto(ids, dst, nil); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if err := tier.FetchBatchInto(ids, dst, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	g := gen.ErdosRenyi(300, 1500, 4)
	ids := make([]graph.NodeID, 0, 64)
	for id := graph.NodeID(0); id < 64; id++ {
		ids = append(ids, id)
	}
	dst := make([]FetchResult, len(ids))

	st1, _ := kvstore.New(3, nil)
	Load(st1, g)
	r1 := measure(NewTier(st1), ids, dst)

	st2, _ := kvstore.NewStore(3, 2, nil)
	Load(st2, g)
	r2 := measure(NewTier(st2), ids, dst)

	if r2 > r1+6 {
		t.Fatalf("replicated fetch costs %.1f allocs/op vs %.1f unreplicated — failover machinery leaked onto the happy path", r2, r1)
	}
}
