package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/topology"
)

func mustReplicated(t *testing.T, n, r int) *Store {
	t.Helper()
	s, err := NewStore(n, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func loadKeys(s *Store, n int) {
	for k := uint64(0); k < uint64(n); k++ {
		s.Put(k, []byte{byte(k), byte(k >> 8), byte(k >> 16)})
	}
}

// readAll fetches every key through the batched read path and returns the
// found count, failing the test on availability errors.
func readAll(t *testing.T, s *Store, n int) int {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	batches, vals := readBatch(s, keys)
	if err := batchErr(batches); err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	found := 0
	for k, v := range vals {
		if v != nil {
			if len(v) != 3 || v[0] != byte(k) {
				t.Fatalf("key %d: wrong value %v", k, v)
			}
			found++
		}
	}
	return found
}

func TestNewReplicatedValidation(t *testing.T) {
	if _, err := NewStore(0, 1, nil); err == nil {
		t.Fatal("0 servers accepted")
	}
	if _, err := NewStore(4, 0, nil); err == nil {
		t.Fatal("0 replicas accepted")
	}
	if _, err := NewStore(2, 3, nil); err == nil {
		t.Fatal("more replicas than servers accepted")
	}
	if _, err := NewStore(20, topology.MaxReplicas+1, nil); err == nil {
		t.Fatal("replicas beyond MaxReplicas accepted")
	}
}

func TestReplicatedPutPlacesRCopies(t *testing.T) {
	s := mustReplicated(t, 5, 3)
	const n = 500
	loadKeys(s, n)
	if got := s.TotalKeys(); got != n*3 {
		t.Fatalf("TotalKeys = %d, want %d (3 copies each)", got, n*3)
	}
	var buf [topology.MaxReplicas]int
	for k := uint64(0); k < n; k++ {
		pl := s.ReplicasFor(k, buf[:0])
		if len(pl) != 3 {
			t.Fatalf("key %d has %d replicas", k, len(pl))
		}
		if s.ServerFor(k) != pl[0] {
			t.Fatalf("key %d: primary %d != placement head %d", k, s.ServerFor(k), pl[0])
		}
	}
	if u := s.UnderReplicated(); u != 0 {
		t.Fatalf("UnderReplicated = %d after load", u)
	}
}

func TestReplicatedFailRepairsAndServes(t *testing.T) {
	s := mustReplicated(t, 4, 2)
	const n = 800
	loadKeys(s, n)
	if _, err := s.FailServer(0); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, n); got != n {
		t.Fatalf("read %d of %d keys after failure", got, n)
	}
	// Re-replication restored two live copies of everything, so a second
	// failure still loses nothing.
	if u := s.UnderReplicated(); u != 0 {
		t.Fatalf("UnderReplicated = %d after repair", u)
	}
	if _, err := s.FailServer(1); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, n); got != n {
		t.Fatalf("read %d of %d keys after second failure", got, n)
	}
}

// TestSingleReplicaFailIsNoLiveReplica: at R = 1 a down shard stays in the
// placement domain, so the batch read on it fails with ErrNoLiveReplica and
// its keys read nil.
func TestSingleReplicaFailIsNoLiveReplica(t *testing.T) {
	s := mustNew(t, 3, nil)
	loadKeys(s, 300)
	if _, err := s.FailServer(1); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i)
	}
	sawUnavailable := false
	batches, vals := readBatch(s, keys)
	for _, b := range batches {
		err := b.Err
		if b.Server == 1 {
			if !errors.Is(err, ErrNoLiveReplica) {
				t.Fatalf("batch on down sole replica: err = %v", err)
			}
			for _, p := range b.Pos {
				if vals[p] != nil {
					t.Fatalf("key %d on the down sole replica read %v", keys[p], vals[p])
				}
			}
			sawUnavailable = true
		} else if err != nil {
			t.Fatalf("batch on live server errored: %v", err)
		}
	}
	if !sawUnavailable {
		t.Fatal("no batch landed on the failed server")
	}
	// Revive restores full service (the down sole owner kept its data).
	if _, err := s.ReviveServer(1); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, 300); got != 300 {
		t.Fatalf("read %d of 300 after revive", got)
	}
}

func TestReplicatedReviveSyncsMissedWrites(t *testing.T) {
	s := mustReplicated(t, 3, 2)
	loadKeys(s, 200)
	if _, err := s.FailServer(2); err != nil {
		t.Fatal(err)
	}
	// Writes and a deletion land while slot 2 is down.
	s.Put(7, []byte("new"))
	deleted := s.Delete(9)
	if !deleted {
		t.Fatal("Delete(9) reported absent")
	}
	if _, err := s.ReviveServer(2); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(7); !ok || string(v) != "new" {
		t.Fatalf("Get(7) after revive = %q, %v", v, ok)
	}
	if _, ok := s.Get(9); ok {
		t.Fatal("deleted key resurrected by revive repair")
	}
	if u := s.UnderReplicated(); u != 0 {
		t.Fatalf("UnderReplicated = %d after revive", u)
	}
	// The revived shard itself converged: no key's copies disagree. Check
	// via per-shard totals — every key except the tombstoned one has
	// exactly 2 live copies.
	if got, want := s.TotalKeys(), 199*2; got != want {
		t.Fatalf("TotalKeys = %d, want %d", got, want)
	}
}

func TestReplicatedAddServerRemapBound(t *testing.T) {
	s := mustReplicated(t, 6, 2)
	const n = 4000
	loadKeys(s, n)
	var buf [topology.MaxReplicas]int
	before := make([][2]int, n)
	for k := 0; k < n; k++ {
		pl := s.ReplicasFor(uint64(k), buf[:0])
		before[k] = [2]int{pl[0], pl[1]}
	}
	slot, _, err := s.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	if slot != 6 {
		t.Fatalf("new slot = %d, want 6", slot)
	}
	moved := 0
	for k := 0; k < n; k++ {
		pl := s.ReplicasFor(uint64(k), buf[:0])
		if pl[0] != before[k][0] || pl[1] != before[k][1] {
			moved++
		}
	}
	// ~2/7 ≈ 0.286 of keys gain the new slot in their set; a modulo remap
	// would move nearly everything.
	frac := float64(moved) / n
	if frac > 0.37 {
		t.Fatalf("adding 1 of 7 slots moved %.1f%% of replica sets, want ~29%%", 100*frac)
	}
	if got := readAll(t, s, n); got != n {
		t.Fatalf("read %d of %d after scale-out", got, n)
	}
	if u := s.UnderReplicated(); u != 0 {
		t.Fatalf("UnderReplicated = %d after scale-out", u)
	}
	// The new shard carries roughly its fair share (2n/7 of the copies).
	share := s.Stats(slot).Keys
	if share < n*2/7/2 || share > n*2/7*2 {
		t.Fatalf("new shard holds %d copies, want ~%d", share, n*2/7)
	}
}

func TestReplicatedDrainServer(t *testing.T) {
	s := mustReplicated(t, 4, 2)
	const n = 600
	loadKeys(s, n)
	if _, err := s.DrainServer(3); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(3); st.Keys != 0 || st.Bytes != 0 {
		t.Fatalf("drained shard still holds %d keys / %d bytes", st.Keys, st.Bytes)
	}
	if got := s.View().Status(3); got != topology.Left {
		t.Fatalf("drained slot status = %v", got)
	}
	if got := readAll(t, s, n); got != n {
		t.Fatalf("read %d of %d after drain", got, n)
	}
	if u := s.UnderReplicated(); u != 0 {
		t.Fatalf("UnderReplicated = %d after drain", u)
	}
}

// TestSingleReplicaStoreIsElastic: an R = 1 store moves its membership like
// any other. Scale-out and drain re-home the keys (most of them, murmur being
// taken modulo the domain) and every key reads back at its latest value.
func TestSingleReplicaStoreIsElastic(t *testing.T) {
	s := mustNew(t, 3, nil)
	const n = 900
	loadKeys(s, n)
	for k := uint64(0); k < n; k += 3 {
		s.Put(k, []byte{byte(k), 0xff, 0xff})
	}
	slot, _, err := s.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats(slot).Keys == 0 {
		t.Fatal("scale-out left the new shard empty")
	}
	if _, err := s.DrainServer(0); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(0); st.Keys != 0 {
		t.Fatalf("drained shard still holds %d keys", st.Keys)
	}
	if got := readAll(t, s, n); got != n {
		t.Fatalf("read %d of %d after add + drain", got, n)
	}
	for k := uint64(0); k < n; k++ {
		want := []byte{byte(k), byte(k >> 8), byte(k >> 16)}
		if k%3 == 0 {
			want = []byte{byte(k), 0xff, 0xff}
		}
		if v, ok := s.Get(k); !ok || !bytes.Equal(v, want) {
			t.Fatalf("key %d = %v, %v; want %v", k, v, ok, want)
		}
	}
	if u := s.UnderReplicated(); u != 0 {
		t.Fatalf("UnderReplicated = %d after add + drain", u)
	}
}

// TestSingleReplicaReviveReconcilesPinnedKey: a key pinned off its Placer
// slot is written to that slot while its pin's slot is down; the revive's
// repair pass must carry the newer value back under the pin.
func TestSingleReplicaReviveReconcilesPinnedKey(t *testing.T) {
	s := mustNew(t, 3, nil)
	loadKeys(s, 100)
	var buf [topology.MaxReplicas]int
	k := uint64(0)
	for s.ReplicasFor(k, buf[:0])[0] != 0 {
		k++
	}
	if _, err := s.Move(k, []int{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailServer(2); err != nil {
		t.Fatal(err)
	}
	s.Put(k, []byte{byte(k), 0xff, 0xff})
	if _, err := s.ReviveServer(2); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(k); !ok || !bytes.Equal(v, []byte{byte(k), 0xff, 0xff}) {
		t.Fatalf("key %d after revive = %v, %v; want the write made while down", k, v, ok)
	}
}

func TestFailLastActiveRefused(t *testing.T) {
	s := mustReplicated(t, 2, 2)
	if _, err := s.FailServer(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailServer(1); err == nil {
		t.Fatal("failing the last active storage server accepted")
	}
}

// TestReplicatedPlacementProperty is the replica-placement property test:
// across random membership sequences (join / drain / fail / revive) that
// never exceed R-1 concurrently down members — the fault model R-way
// replication is meant to tolerate — every key keeps at least one live
// replica reachable through the batched read path, re-replication leaves
// nothing under-replicated, and every key remains readable with its
// correct value.
func TestReplicatedPlacementProperty(t *testing.T) {
	const (
		replicas = 3
		n        = 1500
		ops      = 40
	)
	rng := rand.New(rand.NewSource(4242))
	s := mustReplicated(t, 4, replicas)
	loadKeys(s, n)
	down := map[int]struct{}{}
	for op := 0; op < ops; op++ {
		v := s.View()
		var active []int
		for _, m := range v.Members {
			if m.Status == topology.Active {
				active = append(active, m.Slot)
			}
		}
		switch choice := rng.Intn(4); choice {
		case 0: // join
			if _, _, err := s.AddServer(); err != nil {
				t.Fatalf("op %d join: %v", op, err)
			}
		case 1: // drain a random active member (keep at least R active)
			if len(active) > replicas {
				slot := active[rng.Intn(len(active))]
				if _, err := s.DrainServer(slot); err != nil {
					t.Fatalf("op %d drain %d: %v", op, slot, err)
				}
			}
		case 2: // fail, staying within the R-1 concurrent-failure budget
			if len(down) < replicas-1 && len(active) > 1 {
				slot := active[rng.Intn(len(active))]
				if _, err := s.FailServer(slot); err != nil {
					t.Fatalf("op %d fail %d: %v", op, slot, err)
				}
				down[slot] = struct{}{}
			}
		case 3: // revive one down member
			for slot := range down {
				if _, err := s.ReviveServer(slot); err != nil {
					t.Fatalf("op %d revive %d: %v", op, slot, err)
				}
				delete(down, slot)
				break
			}
		}
		// Invariants after every transition.
		if got := readAll(t, s, n); got != n {
			t.Fatalf("op %d: only %d of %d keys readable", op, got, n)
		}
		if u := s.UnderReplicated(); u != 0 {
			t.Fatalf("op %d: %d keys under-replicated", op, u)
		}
		var buf [topology.MaxReplicas]int
		for _, k := range []uint64{0, uint64(n / 2), uint64(n - 1), uint64(rng.Intn(n))} {
			pl := s.ReplicasFor(k, buf[:0])
			if len(pl) == 0 {
				t.Fatalf("op %d: key %d has no placement", op, k)
			}
			live := 0
			for _, slot := range pl {
				if s.View().Status(slot) == topology.Active {
					live++
				}
			}
			if live == 0 {
				t.Fatalf("op %d: key %d has no live replica in %v", op, k, pl)
			}
		}
	}
}

// TestReplicatedConcurrentChurn hammers the batched read path while
// membership transitions land concurrently: ReadBatch plans and reads under
// one view, so every round must return every key with its value and no
// batch error — no stale plan to bounce, no replan.
func TestReplicatedConcurrentChurn(t *testing.T) {
	const n = 400
	s := mustReplicated(t, 4, 2)
	loadKeys(s, n)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			slot := i % 4
			if _, err := s.FailServer(slot); err == nil {
				s.ReviveServer(slot)
			}
		}
	}()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	var plan BatchPlan
	vals := make([][]byte, n)
	for round := 0; round < 300; round++ {
		for _, b := range s.ReadBatch(&plan, keys, vals) {
			if b.Err != nil {
				t.Fatalf("round %d: batch on server %d: %v", round, b.Server, b.Err)
			}
		}
		for i, v := range vals {
			if v == nil || v[0] != byte(i) {
				t.Fatalf("round %d: key %d read %v", round, i, v)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestDrainServerSingleReplica pins the R=1 drain path: the draining
// shard holds the only copy of its keys, so it must be the re-replication
// source — every key survives onto the remaining shard.
func TestDrainServerSingleReplica(t *testing.T) {
	s := mustReplicated(t, 2, 1)
	const n = 100
	loadKeys(s, n)
	if _, err := s.DrainServer(0); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, n); got != n {
		t.Fatalf("only %d of %d keys survived an R=1 drain", got, n)
	}
	if st := s.Stats(1); st.Keys != n {
		t.Fatalf("survivor holds %d keys, want %d", st.Keys, n)
	}
}

// TestUnderReplicatedConcurrentWithWrites races the backlog scan against
// writers (both hold the store lock's read side; the shard maps need the
// per-shard locks) — run under -race in CI.
func TestUnderReplicatedConcurrentWithWrites(t *testing.T) {
	s := mustReplicated(t, 3, 2)
	loadKeys(s, 200)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				s.Put(i%200, []byte{byte(i), 1, 2})
				s.Delete(200 + i%17)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		s.UnderReplicated()
	}
	close(stop)
	wg.Wait()
}

// TestStatsConcurrentWithRepair races Stats/TotalKeys snapshots against
// membership transitions (whose synchronous repair rewrites shard
// accounting under the store write lock) — run under -race in CI.
func TestStatsConcurrentWithRepair(t *testing.T) {
	s := mustReplicated(t, 3, 2)
	loadKeys(s, 300)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			slot := i % 3
			if _, err := s.FailServer(slot); err == nil {
				s.ReviveServer(slot)
			}
		}
	}()
	for i := 0; i < 300; i++ {
		for slot := 0; slot < 3; slot++ {
			s.Stats(slot)
		}
		s.TotalKeys()
		s.TotalBytes()
	}
	close(stop)
	wg.Wait()
}

func TestReplicatedGetBatchDistinguishesAbsent(t *testing.T) {
	s := mustReplicated(t, 3, 2)
	loadKeys(s, 50)
	// A genuinely absent key reads nil with no batch error.
	batches, vals := readBatch(s, []uint64{7, 9999})
	if err := batchErr(batches); err != nil {
		t.Fatalf("batch with absent key errored: %v", err)
	}
	if vals[0] == nil || vals[1] != nil {
		t.Fatalf("keys 7, 9999 read %v, want present, absent", vals)
	}
}

// TestReadBatchKeyOnlyOnUnreachableShards reads a key whose newest copy
// sits on a down shard and whose other copy on a parted one: its read
// replica is live but misses it, and the slow path classifies it
// unavailable, so the whole batch fails with ErrNoLiveReplica and reads nil.
func TestReadBatchKeyOnlyOnUnreachableShards(t *testing.T) {
	s := mustReplicated(t, 4, 2)
	const k = 7
	loadKeys(s, 100)
	pl := s.ReplicasFor(k, nil)
	if err := s.PartitionServer(pl[0]); err != nil {
		t.Fatal(err)
	}
	s.Put(k, []byte{k, 1, 1}) // lands on pl[1] only
	if _, err := s.FailServer(pl[1]); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(i)
	}
	batches, vals := readBatch(s, keys)
	for _, b := range batches {
		if !slices.Contains(b.Keys, k) {
			continue
		}
		if b.Server == pl[0] || b.Server == pl[1] || !errors.Is(b.Err, ErrNoLiveReplica) {
			t.Fatalf("key %d's batch on server %d (placed %v): err %v, want ErrNoLiveReplica from a live server", k, b.Server, pl, b.Err)
		}
		for _, p := range b.Pos {
			if vals[p] != nil {
				t.Fatalf("key %d of the failed batch read %v", keys[p], vals[p])
			}
		}
		return
	}
	t.Fatalf("no batch holds key %d", k)
}

func TestReplicatedTotalBytesCountsReplicas(t *testing.T) {
	s := mustReplicated(t, 4, 2)
	s.Put(1, []byte("abcd"))
	if got := s.TotalBytes(); got != 8 {
		t.Fatalf("TotalBytes = %d, want 8 (4 bytes x 2 replicas)", got)
	}
	if s.Replicas() != 2 {
		t.Fatalf("Replicas = %d, want 2", s.Replicas())
	}
}

func TestReplicatedEpochAdvances(t *testing.T) {
	s := mustReplicated(t, 3, 2)
	e0 := s.View().Epoch
	if _, err := s.FailServer(0); err != nil {
		t.Fatal(err)
	}
	if s.View().Epoch != e0+1 {
		t.Fatalf("epoch %d after fail, want %d", s.View().Epoch, e0+1)
	}
	if _, err := s.ReviveServer(0); err != nil {
		t.Fatal(err)
	}
	if s.View().Epoch != e0+2 {
		t.Fatalf("epoch %d after revive, want %d", s.View().Epoch, e0+2)
	}
	for _, m := range s.View().Members {
		if m.Tier != topology.TierStorage {
			t.Fatalf("member %+v lacks storage tier", m)
		}
	}
}

func ExampleStore_ReplicasFor() {
	s, _ := NewStore(4, 2, nil)
	fmt.Println(len(s.ReplicasFor(42, nil)))
	// Output: 2
}
