package kvstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/topology"
)

// countReadable fetches keys [0,n) through the batched path and returns
// how many were found, without validating values (for tests that
// overwrite keys mid-run).
func countReadable(t *testing.T, s *Store, n int) int {
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
	for _, v := range vals {
		if v != nil {
			found++
		}
	}
	return found
}

func mustDurable(t *testing.T, n, r int, dir string) *Store {
	t.Helper()
	s, err := NewStore(n, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableDurability(Durability{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	return s
}

// churnKey is where compactAll writes, far above the keys tests load.
const churnKey = 1 << 40

// compactAll overwrites a few keys above churnKey with 16 KiB values, then
// drops them, until every active shard's records have been cleaned and its
// log compacted: a log that is a compacted image plus a tail, with no live
// key left behind.
func compactAll(t *testing.T, s *Store) {
	t.Helper()
	big := make([]byte, 16<<10)
	for i := uint64(0); ; i++ {
		done := true
		for slot := 0; slot < s.NumServers(); slot++ {
			if s.View().Status(slot) == topology.Active && s.Counters(slot).Snapshots == 0 {
				done = false
			}
		}
		if done {
			break
		}
		if i == 1000 {
			t.Fatal("no compaction on every shard after 1000 overwrites")
		}
		s.Put(churnKey+i%8, big)
	}
	for k := uint64(churnKey); k < churnKey+8; k++ {
		s.Delete(k)
	}
}

func TestEnableDurabilityValidation(t *testing.T) {
	s := mustReplicated(t, 3, 2)
	if err := s.EnableDurability(Durability{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	dir := t.TempDir()
	if err := s.EnableDurability(Durability{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableDurability(Durability{Dir: dir}); err == nil {
		t.Fatal("double enable accepted")
	}
	if s.dur == nil {
		t.Fatal("no durability layer after enable")
	}
	if c := s.Counters(0); c.Durable != "fresh" {
		t.Fatalf("Counters(0) = %+v", c)
	}
	if s.Counters(99).Durable != "" {
		t.Fatal("out-of-range slot reports enabled")
	}
}

// TestCrashRestartRecoversAckedWrites is the core durability contract:
// kill -9 a shard (no sync, no warning) and every write acknowledged
// before the crash is back after restart, via local WAL replay.
func TestCrashRestartRecoversAckedWrites(t *testing.T) {
	dir := t.TempDir()
	s := mustDurable(t, 4, 2, dir)
	const n = 500
	loadKeys(s, n)
	compactAll(t, s)                  // a compacted image and a tail behind it
	for k := uint64(0); k < 20; k++ { // overwrites + deletions in the log too
		s.Put(k, []byte{byte(k), byte(k >> 8), byte(k >> 16)})
	}
	s.Delete(7)
	s.Delete(13)

	if _, err := s.CrashServer(2); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(2); c.Durable != "crashed" {
		t.Fatalf("state after crash = %q", c.Durable)
	}
	// The tier repaired around the crash: everything still readable.
	if got := readAll(t, s, n); got != n-2 {
		t.Fatalf("after crash: %d keys readable, want %d", got, n-2)
	}
	if _, err := s.RestartServer(2); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(2); c.Durable != "warm" || c.ReplayedBytes == 0 {
		t.Fatalf("after restart: %+v", c)
	}
	if got := readAll(t, s, n); got != n-2 {
		t.Fatalf("after restart: %d keys readable, want %d", got, n-2)
	}
	if _, ok := s.Get(7); ok {
		t.Fatal("deleted key resurrected by replay")
	}
	if under := s.UnderReplicated(); under != 0 {
		t.Fatalf("under-replicated after restart: %d", under)
	}
}

// TestSingleReplicaResizeWaitsForDownOwner: at R = 1 a resize while a sole
// owner is down would hand live keys to the down slot, where the copy repair
// made lives only in memory and a restart replays the log over it. Both
// AddServer and DrainServer are refused until the owner is back, and then
// every key reads back at its value after a crash, a restart and the resize.
func TestSingleReplicaResizeWaitsForDownOwner(t *testing.T) {
	s := mustDurable(t, 3, 1, t.TempDir())
	const n = 600
	loadKeys(s, n)
	compactAll(t, s)
	if _, err := s.CrashServer(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AddServer(); err == nil {
		t.Fatal("R = 1 AddServer accepted with slot 1 down")
	}
	if _, err := s.DrainServer(0); err == nil {
		t.Fatal("R = 1 DrainServer accepted with slot 1 down")
	}
	if v := s.View(); len(v.Members) != 3 || v.Status(0) != topology.Active {
		t.Fatalf("a refused resize moved the membership: %+v", v.Members)
	}
	if _, err := s.RestartServer(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AddServer(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DrainServer(0); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, n); got != n {
		t.Fatalf("read %d of %d after restart + add + drain", got, n)
	}
	if u := s.UnderReplicated(); u != 0 {
		t.Fatalf("UnderReplicated = %d", u)
	}
}

// TestWarmRestartBoundsRepairBytes is the tentpole's economic argument: a
// durable shard rejoins warm and repair tops up only the delta written
// during the outage, while a cold (non-durable) shard re-copies
// everything.
func TestWarmRestartBoundsRepairBytes(t *testing.T) {
	const n = 2000
	run := func(t *testing.T, durable bool) (repairDelta, shardBytes int64) {
		t.Helper()
		var s *Store
		if durable {
			s = mustDurable(t, 4, 2, t.TempDir())
		} else {
			s = mustReplicated(t, 4, 2)
		}
		loadKeys(s, n)
		shardBytes = s.Stats(1).Bytes
		if _, err := s.CrashServer(1); err != nil {
			t.Fatal(err)
		}
		// A little churn while the shard is down — the delta it must catch
		// up on at rejoin.
		for k := uint64(0); k < 50; k++ {
			s.Put(k, []byte{0xFF, byte(k), 0xFF})
		}
		before := s.Stats(1).RepairBytes
		if _, err := s.RestartServer(1); err != nil {
			t.Fatal(err)
		}
		return s.Stats(1).RepairBytes - before, shardBytes
	}
	warm, warmShard := run(t, true)
	cold, coldShard := run(t, false)
	if cold < coldShard {
		t.Fatalf("cold restart repaired %d bytes, expected at least the shard's %d", cold, coldShard)
	}
	// The acceptance bound: re-replication after a warm rejoin is under
	// 10%% of a full shard copy.
	if warm*10 >= warmShard {
		t.Fatalf("warm restart repaired %d bytes, not < 10%% of shard's %d", warm, warmShard)
	}
	if got := warm; got < 0 {
		t.Fatalf("negative repair delta %d", got)
	}
}

// TestWholeTierColdStartFromDisk restarts the entire store from a prior
// run's directory: a brand-new Store recovers every shard from disk with
// no bulk load at all.
func TestWholeTierColdStartFromDisk(t *testing.T) {
	dir := t.TempDir()
	const n = 400
	s1 := mustDurable(t, 3, 2, dir)
	loadKeys(s1, n)
	compactAll(t, s1)
	s1.Delete(5)
	for _, sv := range s1.servers {
		if err := sv.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate whole-process death: abandon every shard's fd.
	for i := 0; i < s1.NumServers(); i++ {
		if _, err := s1.CrashServer(i); err != nil {
			// The last active shard cannot crash; abandon is what a real
			// process death would do anyway — just stop using s1.
			break
		}
	}

	s2 := mustDurable(t, 3, 2, dir)
	if got := readAll(t, s2, n); got != n-1 {
		t.Fatalf("cold start recovered %d keys, want %d", got, n-1)
	}
	if _, ok := s2.Get(5); ok {
		t.Fatal("deleted key resurrected across full restart")
	}
	// New writes must version above replayed ones.
	s2.Put(3, []byte{9, 9, 9})
	if v, ok := s2.Get(3); !ok || len(v) != 3 || v[0] != 9 {
		t.Fatalf("post-recovery overwrite lost: %v", v)
	}
	if under := s2.UnderReplicated(); under != 0 {
		t.Fatalf("under-replicated after cold start: %d", under)
	}
}

// TestSnapshotCompactionTruncatesWAL loads a durable store — no compaction,
// every record still in the log — then overwrites until every shard's
// records are cleaned: each log is rewritten as its live records, the file
// on disk is the size the stats claim, and no snapshot file appears.
func TestSnapshotCompactionTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustDurable(t, 2, 2, dir)
	loadKeys(s, 500) // 500 records per shard (R=2 over 2 shards)
	if c := s.Counters(0); c.Snapshots != 0 || c.WALRecords != 500 {
		t.Fatalf("after a load of fresh keys: %+v, want no compaction and 500 records", c)
	}
	compactAll(t, s)
	c := s.Counters(0)
	// The last compaction kept the 500 loaded keys and at most the 8 churn
	// keys; what followed it is at most one overwrite or deletion each.
	if c.WALRecords > 500+8+8 {
		t.Fatalf("WAL not compacted: %d records", c.WALRecords)
	}
	if c.DurableVersion == 0 {
		t.Fatal("durable version not advanced")
	}
	// The file is what Stats claims.
	fi, err := os.Stat(filepath.Join(dir, "shard-0.wal"))
	if err != nil || fi.Size() != c.WALBytes {
		t.Fatalf("shard-0.wal: %v (err %v), stats claim %d bytes", fi, err, c.WALBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a snapshot file beside the log (err=%v)", err)
	}
}

func TestDrainServerRemovesDurableFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustDurable(t, 3, 2, dir)
	loadKeys(s, 100)
	if _, err := s.DrainServer(2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-2.wal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("shard-2.wal survives drain (err=%v)", err)
	}
	if s.Counters(2).Durable != "" {
		t.Fatal("drained shard still reports durability")
	}
	if got := readAll(t, s, 100); got != 100 {
		t.Fatalf("after drain: %d keys readable", got)
	}
}

func TestAddServerGetsDurableLog(t *testing.T) {
	dir := t.TempDir()
	s := mustDurable(t, 2, 2, dir)
	loadKeys(s, 100)
	slot, _, err := s.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counters(slot)
	if c.Durable != "fresh" {
		t.Fatalf("new shard durability: %+v", c)
	}
	// The repair pass that filled the new shard must have hit its WAL.
	if c.WALRecords == 0 && c.Snapshots == 0 {
		t.Fatal("new shard's repair copies were not logged")
	}
	// And they must replay: crash + restart the new shard.
	if _, err := s.CrashServer(slot); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RestartServer(slot); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, 100); got != 100 {
		t.Fatalf("after new-shard crash cycle: %d keys readable", got)
	}
}

func TestRestartServerValidation(t *testing.T) {
	s := mustDurable(t, 3, 2, t.TempDir())
	if _, err := s.RestartServer(0); err == nil {
		t.Fatal("restart of an active shard accepted")
	}
	if _, err := s.RestartServer(99); err == nil {
		t.Fatal("restart of an out-of-range slot accepted")
	}
}

func TestCrashWithoutDurabilityStillRepairs(t *testing.T) {
	s := mustReplicated(t, 3, 2)
	loadKeys(s, 300)
	if _, err := s.CrashServer(0); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, 300); got != 300 {
		t.Fatalf("after crash: %d keys readable", got)
	}
	if _, err := s.RestartServer(0); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, 300); got != 300 {
		t.Fatalf("after cold restart: %d keys readable", got)
	}
	if under := s.UnderReplicated(); under != 0 {
		t.Fatalf("under-replicated: %d", under)
	}
}

func TestPartitionRoutesAroundAndHeals(t *testing.T) {
	s := mustReplicated(t, 4, 2)
	const n = 500
	loadKeys(s, n)
	if err := s.PartitionServer(1); err != nil {
		t.Fatal(err)
	}
	if !s.Parted(1) {
		t.Fatal("Parted(1) false")
	}
	// Reads route around the split: everything still readable via the
	// surviving replica, and no plan lands on the parted shard.
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	batches, _ := readBatch(s, keys)
	for _, b := range batches {
		if b.Server == 1 {
			t.Fatal("plan routed a batch to the parted shard")
		}
	}
	if got := readAll(t, s, n); got != n {
		t.Fatalf("during partition: %d keys readable, want %d", got, n)
	}
	// Writes land on the reachable replicas only.
	for k := uint64(0); k < 100; k++ {
		s.Put(k, []byte{0xAA, byte(k), 0xAA})
	}
	if err := s.HealServer(1); err != nil {
		t.Fatal(err)
	}
	if s.Parted(1) {
		t.Fatal("Parted(1) true after heal")
	}
	// Heal repaired the split shard up to the newest versions.
	sv := s.Stats(1)
	if sv.RepairBytes == 0 {
		t.Fatal("heal did not repair the parted shard")
	}
	if got := countReadable(t, s, n); got != n {
		t.Fatalf("after heal: %d keys readable", got)
	}
	if under := s.UnderReplicated(); under != 0 {
		t.Fatalf("under-replicated after heal: %d", under)
	}
	// Every replica of the overwritten keys converged on the new value.
	for k := uint64(0); k < 100; k++ {
		v, ok := s.Get(k)
		if !ok || v[0] != 0xAA {
			t.Fatalf("key %d: stale value %v after heal", k, v)
		}
	}
}

func TestPartitionSoleReplicaIsUnavailable(t *testing.T) {
	s := mustReplicated(t, 3, 1) // R=1: a partition traps sole copies
	const n = 300
	loadKeys(s, n)
	if err := s.PartitionServer(2); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	sawUnavailable := false
	batches, _ := readBatch(s, keys)
	for _, b := range batches {
		err := b.Err
		if b.Server == 2 {
			if !errors.Is(err, ErrNoLiveReplica) {
				t.Fatalf("parted sole replica: err=%v, want ErrNoLiveReplica", err)
			}
			sawUnavailable = true
		} else if err != nil {
			t.Fatalf("unparted shard errored: %v", err)
		}
	}
	if !sawUnavailable {
		t.Fatal("no batch planned on the parted shard — test is vacuous")
	}
	if err := s.HealServer(2); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, n); got != n {
		t.Fatalf("after heal: %d keys readable", got)
	}
}

func TestPartitionValidation(t *testing.T) {
	s := mustReplicated(t, 2, 2)
	if err := s.PartitionServer(-1); err == nil {
		t.Fatal("negative slot accepted")
	}
	if err := s.HealServer(99); err == nil {
		t.Fatal("out-of-range heal accepted")
	}
}

// TestDurablePartitionedCrashInterplay exercises the full fault matrix on
// one store: partition + crash + restart + heal in sequence, with the
// invariant that no acknowledged write is ever lost or resurrected.
func TestDurablePartitionedCrashInterplay(t *testing.T) {
	dir := t.TempDir()
	s := mustDurable(t, 5, 3, dir)
	const n = 1000
	loadKeys(s, n)
	compactAll(t, s)
	if err := s.PartitionServer(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CrashServer(3); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		s.Put(k, []byte{0xBB, byte(k), 0xBB})
	}
	s.Delete(999)
	if got := countReadable(t, s, n); got != n-1 {
		t.Fatalf("under partition+crash: %d keys readable, want %d", got, n-1)
	}
	if _, err := s.RestartServer(3); err != nil {
		t.Fatal(err)
	}
	if err := s.HealServer(0); err != nil {
		t.Fatal(err)
	}
	if got := countReadable(t, s, n); got != n-1 {
		t.Fatalf("after recovery: %d keys readable, want %d", got, n-1)
	}
	for k := uint64(0); k < 200; k++ {
		v, ok := s.Get(k)
		if !ok || v[0] != 0xBB {
			t.Fatalf("key %d: lost outage-era write (%v)", k, v)
		}
	}
	if _, ok := s.Get(999); ok {
		t.Fatal("deletion resurrected")
	}
	if under := s.UnderReplicated(); under != 0 {
		t.Fatalf("under-replicated at end: %d", under)
	}
}
