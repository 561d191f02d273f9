package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/kvstore"
	"repro/internal/query"
	"repro/internal/topology"
)

func storageTestSystem(t *testing.T, replicas int) (*System, []query.Query) {
	t.Helper()
	g := gen.LocalWeb(1500, 8, 60, 0.01, 3)
	cfg := Config{
		Processors: 4, StorageServers: 3, StorageReplicas: replicas,
		Policy: PolicyHash, Seed: 1,
	}
	sys, err := NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots: 10, QueriesPerHotspot: 8, R: 2, H: 2, Seed: 5,
	})
	return sys, qs
}

// TestStorageReplicasEquivalence pins that the replication factor is
// invisible to results: the same workload on R=1 and R=2 storage answers
// oracle-identically.
func TestStorageReplicasEquivalence(t *testing.T) {
	sys1, qs := storageTestSystem(t, 1)
	sys2, _ := storageTestSystem(t, 2)
	r1, err := sys1.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys2.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	g := sys1.Graph()
	for i, q := range qs {
		want := query.Answer(g, q)
		if r1.Results[q.ID] != want || r2.Results[q.ID] != want {
			t.Fatalf("query %d: R=1 %v / R=2 %v / oracle %v", i, r1.Results[q.ID], r2.Results[q.ID], want)
		}
	}
	if r1.Touched != r2.Touched {
		t.Fatalf("touched differs across replication: %d vs %d", r1.Touched, r2.Touched)
	}
}

// TestStorageFailMidSessionReplicated kills one of R=2 storage replicas
// while a session is executing concurrently (the -race acceptance
// scenario): no query may fail and every result stays oracle-identical.
func TestStorageFailMidSessionReplicated(t *testing.T) {
	sys, qs := storageTestSystem(t, 2)
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	g := sys.Graph()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := sys.FailStorage(1); err != nil {
			t.Errorf("FailStorage: %v", err)
		}
	}()
	for i, q := range qs {
		res, _, err := ses.Execute(q)
		if err != nil {
			t.Fatalf("query %d failed across the storage failure: %v", i, err)
		}
		if res != query.Answer(g, q) {
			t.Fatalf("query %d answered wrongly across the storage failure", i)
		}
	}
	wg.Wait()
	// Revive and keep going: still exact.
	if err := sys.ReviveStorage(1); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs[:20] {
		res, _, err := ses.Execute(q)
		if err != nil || res != query.Answer(g, q) {
			t.Fatalf("post-revive query wrong: %v %v", res, err)
		}
	}
}

// TestStorageFailUnreplicatedIsTypedUnavailable pins the R=1 behaviour: a
// query needing the dead server's records fails with query.ErrUnavailable
// (not a wrong answer), and revive restores exact service.
func TestStorageFailUnreplicatedIsTypedUnavailable(t *testing.T) {
	sys, qs := storageTestSystem(t, 1)
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FailStorage(0); err != nil {
		t.Fatal(err)
	}
	g := sys.Graph()
	failed := 0
	for _, q := range qs {
		res, _, err := ses.Execute(q)
		if err != nil {
			if !errors.Is(err, query.ErrUnavailable) {
				t.Fatalf("failure not typed unavailable: %v", err)
			}
			failed++
			continue
		}
		if res != query.Answer(g, q) {
			t.Fatal("survived query answered wrongly")
		}
	}
	if failed == 0 {
		t.Fatal("no query touched the dead storage server — test is vacuous")
	}
	if err := sys.ReviveStorage(0); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		res, _, err := ses.Execute(q)
		if err != nil || res != query.Answer(g, q) {
			t.Fatalf("post-revive query wrong: %v %v", res, err)
		}
	}
}

// TestStorageScaleOutInLive adds and drains storage members under a live
// session: results stay exact throughout and the storage epoch advances.
func TestStorageScaleOutInLive(t *testing.T) {
	sys, qs := storageTestSystem(t, 2)
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	g := sys.Graph()
	check := func(batch []query.Query) {
		t.Helper()
		for _, q := range batch {
			res, _, err := ses.Execute(q)
			if err != nil || res != query.Answer(g, q) {
				t.Fatalf("query on node %d: %v %v", q.Node, res, err)
			}
		}
	}
	check(qs[:20])
	slot, err := sys.AddStorage()
	if err != nil {
		t.Fatal(err)
	}
	if slot != 3 {
		t.Fatalf("new storage slot = %d, want 3", slot)
	}
	check(qs[20:50])
	if err := sys.DrainStorage(0); err != nil {
		t.Fatal(err)
	}
	check(qs[50:])

	view := sys.StorageTopology()
	if view.Status(0) != topology.Left || view.Status(3) != topology.Active {
		t.Fatalf("storage view after scale-out/in: %+v", view.Members)
	}
	if view.Epoch < 3 {
		t.Fatalf("storage epoch = %d, want >= 3 (add + drain's two transitions)", view.Epoch)
	}

	// The snapshot carries the storage tier: statuses, replicas, and
	// tier-tagged epoch events.
	snap := ses.Snapshot()
	if snap.StorageEpoch != view.Epoch || snap.StorageReplicas != 2 {
		t.Fatalf("snapshot storage header: epoch %d replicas %d", snap.StorageEpoch, snap.StorageReplicas)
	}
	if len(snap.PerStorage) != view.Slots() {
		t.Fatalf("snapshot has %d storage rows, want %d", len(snap.PerStorage), view.Slots())
	}
	if snap.PerStorage[0].Status != "left" || snap.PerStorage[3].Status != "active" {
		t.Fatalf("snapshot storage statuses: %+v", snap.PerStorage)
	}
	sawStorageEvent := false
	for _, e := range snap.Epochs {
		if e.Tier == "storage" {
			sawStorageEvent = true
		}
	}
	if !sawStorageEvent {
		t.Fatal("no storage-tier epoch event in the snapshot log")
	}
}

// TestUnreplicatedStorageIsElastic: an R = 1 tier grows and drains like a
// replicated one, and the workload keeps answering the oracle across both.
func TestUnreplicatedStorageIsElastic(t *testing.T) {
	sys, qs := storageTestSystem(t, 1)
	if _, err := sys.AddStorage(); err != nil {
		t.Fatal(err)
	}
	if err := sys.DrainStorage(0); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if want := query.Answer(sys.Graph(), q); rep.Results[q.ID] != want {
			t.Fatalf("query %d after add + drain: got %v, want %v", i, rep.Results[q.ID], want)
		}
	}
}

// TestTablePlacerAdaptivePlacement: a custom Placer's store takes the
// adaptive subsystem's moves, and the moved records still answer.
func TestTablePlacerAdaptivePlacement(t *testing.T) {
	const n = 800
	g := gen.LocalWeb(n, 6, 60, 0.01, 11)
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = int32(i * 2 / n) // two contiguous ranges, a partitioner's shape
	}
	cfg := testConfig(PolicyEmbed)
	cfg.Placer = kvstore.TablePlacer{Assign: assign}
	cfg.AdaptivePlacement = true
	cfg.PlacementMinReads = 2
	cfg.CacheBytes = 1 << 10 // tiny cache: reads hit storage and accrue heat
	cfg.StorageAffinity = 4
	sys, err := NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	qs := query.Hotspot(g, query.WorkloadSpec{NumHotspots: 6, QueriesPerHotspot: 12, R: 2, H: 2, Seed: 3})
	run := func() {
		t.Helper()
		for i, q := range qs {
			res, _, err := ses.Execute(q)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			if want := query.Answer(g, q); res != want {
				t.Fatalf("query %d: got %v, want %v", i, res, want)
			}
		}
	}
	run()
	if moved := ses.PlacementTick(); moved == 0 {
		t.Fatal("the placement cycle moved nothing on a TablePlacer store")
	}
	run()
}

func TestConfigStorageReplicasValidation(t *testing.T) {
	g := gen.Ring(64)
	if _, err := NewSystem(g, Config{Processors: 2, StorageServers: 2, StorageReplicas: 3, Policy: PolicyHash}); err == nil {
		t.Fatal("replicas > servers accepted")
	}
	if _, err := NewSystem(g, Config{Processors: 2, StorageServers: 2, StorageReplicas: -1, Policy: PolicyHash}); err == nil {
		t.Fatal("negative replicas accepted")
	}
}
