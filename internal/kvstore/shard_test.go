package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// openTestShard opens a durable shard over dir with the TCP daemon's file
// layout.
func openTestShard(t *testing.T, dir string, every int) *Shard {
	t.Helper()
	sh, err := OpenShard(filepath.Join(dir, "shard.wal"), filepath.Join(dir, "shard.snap"), every, false)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// shardImage reads keys [0,n) off sh as key → value ("" = absent).
func shardImage(sh *Shard, n int) map[uint64]string {
	img := make(map[uint64]string)
	for k := uint64(0); k < uint64(n); k++ {
		if v, ok := sh.Get(k); ok {
			img[k] = string(v)
		}
	}
	return img
}

// TestShardLogsOnlyWhatChanged pins what reaches the WAL: an installed put
// and the drop of a present key are one record each; a put that loses the
// newest-wins compare and the drop of an absent key are refused silently
// and leave the log alone — inside a batch too, where the refused record's
// neighbours still install, and a key named twice is two records ending at
// its last value.
func TestShardLogsOnlyWhatChanged(t *testing.T) {
	sh := openTestShard(t, t.TempDir(), 0)
	defer sh.Abandon()
	put := func(val string, ver uint64) func() (bool, error) {
		return func() (bool, error) { return false, sh.Put(1, []byte(val), ver) }
	}
	batch := func(firstVer uint64, keys []uint64, vals ...string) func() (bool, error) {
		return func() (bool, error) {
			bs := make([][]byte, len(vals))
			for i, v := range vals {
				bs[i] = []byte(v)
			}
			return false, sh.PutBatch(keys, bs, firstVer)
		}
	}
	drop := func(key uint64) func() (bool, error) {
		return func() (bool, error) { return sh.Drop(key) }
	}
	steps := []struct {
		name    string
		do      func() (bool, error)
		found   bool   // Drop's report
		records int64  // WAL records after the step
		val     string // key 1 after the step ("" = absent)
	}{
		{"first put", put("v5", 5), false, 1, "v5"},
		{"older put refused", put("v3", 3), false, 1, "v5"},
		{"equal version refused", put("again", 5), false, 1, "v5"},
		{"newer put", put("v6", 6), false, 2, "v6"},
		{"drop of absent key", drop(2), false, 2, "v6"},
		// Versions 5, 6, 7: key 1 already holds 6, keys 3 and 4 are new.
		{"batch around a refused record", batch(5, []uint64{3, 1, 4}, "k3", "stale", "k4"), false, 4, "v6"},
		{"batch of refused records only", batch(1, []uint64{3, 4}, "old3", "old4"), false, 4, "v6"},
		{"drop of present key", drop(1), true, 5, ""},
		{"second drop", drop(1), false, 5, ""},
		{"batch naming a key twice", batch(8, []uint64{1, 1}, "first", "last"), false, 7, "last"},
	}
	for _, st := range steps {
		found, err := st.do()
		if err != nil || found != st.found {
			t.Fatalf("%s: found=%v err=%v, want found=%v", st.name, found, err, st.found)
		}
		if ds := sh.Durability(); ds.WALRecords != st.records {
			t.Fatalf("%s: %d WAL records, want %d", st.name, ds.WALRecords, st.records)
		}
		if v, _ := sh.Get(1); string(v) != st.val {
			t.Fatalf("%s: key 1 = %q, want %q", st.name, v, st.val)
		}
	}
	if ds := sh.Durability(); ds.DurableVersion != 9 || ds.State != "fresh" {
		t.Fatalf("durability after the steps: %+v", ds)
	}
	if got, want := fmt.Sprint(shardImage(sh, 5)), fmt.Sprint(map[uint64]string{1: "last", 3: "k3", 4: "k4"}); got != want {
		t.Fatalf("image after the steps %v, want %v", got, want)
	}
	if st := sh.Stats(); st.Puts != 11 || st.Keys != 3 || st.Bytes != 8 || st.Gets != uint64(len(steps)+5) {
		t.Fatalf("stats after the steps: %+v", st)
	}
}

// TestShardSnapshotOverlappingWALConverges rebuilds the state a crash
// between the snapshot's rename and the WAL's truncation leaves — a
// snapshot plus a WAL that still holds every record the snapshot already
// covers, then a tail — and checks replay converges on the live image.
func TestShardSnapshotOverlappingWALConverges(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "shard.wal")
	sh := openTestShard(t, dir, 1<<20)
	ver := uint64(0)
	put := func(k uint64, v string) {
		ver++
		if err := sh.Put(k, []byte(v), ver); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 20; k++ {
		put(k, fmt.Sprintf("a%d", k))
	}
	for k := uint64(0); k < 20; k += 3 {
		put(k, fmt.Sprintf("b%d", k)) // overwritten
	}
	for k := uint64(1); k < 20; k += 5 {
		sh.Drop(k) // dropped ...
	}
	put(6, "back") // ... and one of them re-put
	covered, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	err = sh.snapshot()
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	put(7, "tail")
	sh.Drop(0)
	want := shardImage(sh, 20)
	tail, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	sh.Abandon()
	if err := os.WriteFile(walPath, append(covered, tail...), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openTestShard(t, dir, 0)
	defer re.Abandon()
	if got := shardImage(re, 20); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed image %v, want %v", got, want)
	}
	if ds := re.Durability(); ds.State != "warm" || ds.DurableVersion != ver || ds.Snapshots != 1 {
		t.Fatalf("recovered durability: %+v (want warm at version %d)", ds, ver)
	}
	if st := re.Stats(); st.Keys != len(want) {
		t.Fatalf("recovered %d live keys, want %d", st.Keys, len(want))
	}
}

// TestShardOpensParentFormatDirectory builds the directory the TCP shard
// wrote before it shared this code — snapshot records all at version 0
// under a watermark, then a WAL tail versioned above it — and checks every
// key comes back, the watermark is the tail's, and a write stamped above
// it replaces a version-0 record.
func TestShardOpensParentFormatDirectory(t *testing.T) {
	dir := t.TempDir()
	const watermark = 100
	if _, err := writeSnapshot(filepath.Join(dir, "shard.snap"), watermark, func(emit func(op WALOp, key, ver uint64, val []byte)) {
		for k := uint64(0); k < 10; k++ {
			emit(WALPut, k, 0, []byte(fmt.Sprintf("snap%d", k)))
		}
	}); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(filepath.Join(dir, "shard.wal"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		op  WALOp
		key uint64
		val string
	}{{WALPut, 3, "tail3"}, {WALPut, 10, "tail10"}, {WALDrop, 4, ""}} {
		if err := w.Append(rec.op, rec.key, watermark+1+rec.key, []byte(rec.val)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	sh := openTestShard(t, dir, 0)
	want := map[uint64]string{3: "tail3", 10: "tail10"}
	for k := uint64(0); k < 10; k++ {
		if k != 3 && k != 4 {
			want[k] = fmt.Sprintf("snap%d", k)
		}
	}
	if got := shardImage(sh, 12); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered image %v, want %v", got, want)
	}
	ds := sh.Durability()
	if ds.State != "warm" || ds.DurableVersion != watermark+11 || ds.ReplayedRecords != 13 {
		t.Fatalf("recovered durability: %+v", ds)
	}
	if err := sh.Put(5, []byte("new"), ds.DurableVersion+1); err != nil {
		t.Fatal(err)
	}
	if v, _ := sh.Get(5); string(v) != "new" {
		t.Fatalf("write above the watermark lost to a version-0 record: %q", v)
	}
	// A group appended behind the parent's one-record frames shares their
	// log: both generations replay, in order.
	if err := sh.PutBatch([]uint64{6, 3}, [][]byte{[]byte("group6"), []byte("group3")}, ds.DurableVersion+2); err != nil {
		t.Fatal(err)
	}
	want[5], want[6], want[3] = "new", "group6", "group3"
	sh.Abandon()
	re := openTestShard(t, dir, 0)
	defer re.Abandon()
	if got := shardImage(re, 12); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("image after a group behind the parent's frames %v, want %v", got, want)
	}
}

// TestShardCountersMapsARestartedShard pins the storage row's one mapping: a
// durable shard that compacted, was killed and reopened over its directory
// reports its keys, reads and recovered log through Counters field for
// field; an in-memory shard's row has no durable half; and a store's row for
// a slot is its shard's, misses, failovers and repair copies included.
func TestShardCountersMapsARestartedShard(t *testing.T) {
	dir := t.TempDir()
	sh := openTestShard(t, dir, 2)
	for k := uint64(1); k <= 3; k++ {
		if err := sh.Put(k, []byte("abcd"), k); err != nil {
			t.Fatal(err)
		}
	}
	sh.Abandon()
	re := openTestShard(t, dir, 2)
	defer re.Abandon()
	re.Get(1)
	re.Get(9)
	got, ds := re.Counters(), re.Durability()
	want := metrics.StorageCounters{
		Keys: 3, Bytes: 12, Gets: 2,
		Durable: "warm", WALBytes: ds.WALBytes, WALRecords: 1, Snapshots: 1, DurableVersion: 3,
		ReplayedBytes: ds.ReplayedBytes, RecoverNanos: ds.RecoverNanos,
	}
	if got != want || got.WALBytes <= 0 || got.ReplayedBytes <= got.WALBytes {
		t.Fatalf("restarted shard's row %+v, want %+v with the snapshot's bytes replayed beside the log's", got, want)
	}

	mem := NewShard()
	mem.Put(1, []byte("ab"), 1)
	if c := mem.Counters(); c != (metrics.StorageCounters{Keys: 1, Bytes: 2}) {
		t.Fatalf("in-memory shard's row %+v, want one key of two bytes and no durable half", c)
	}

	s := mustReplicated(t, 3, 2)
	loadKeys(s, 60)
	s.Get(1 << 40)
	if _, err := s.FailServer(2); err != nil {
		t.Fatal(err)
	}
	// A batch planned onto the failed slot before it failed bounces.
	s.GetBatchInto(Batch{Server: 2, Keys: []uint64{1}}, make([][]byte, 1), make([]bool, 1))
	var total metrics.StorageCounters
	for slot := 0; slot < 3; slot++ {
		c, st := s.Counters(slot), s.Stats(slot)
		if c.Keys != int64(st.Keys) || c.Bytes != st.Bytes || c.Gets != int64(st.Gets) || c.Misses != int64(st.Misses) ||
			c.Failovers != int64(st.Failovers) || c.RepairBytes != st.RepairBytes || c.Durable != "" {
			t.Fatalf("slot %d: row %+v, shard counters %+v", slot, c, st)
		}
		total.Misses += c.Misses
		total.Failovers += c.Failovers
		total.RepairBytes += c.RepairBytes
	}
	if total.Misses == 0 || total.Failovers == 0 || total.RepairBytes == 0 {
		t.Fatalf("store rows total %+v: a miss, a bounced batch and a failure's repair should all show", total)
	}
	if c := s.Counters(3); c != (metrics.StorageCounters{}) {
		t.Fatalf("out-of-range slot's row %+v, want zero", c)
	}
}

// TestShardAppendFailureIsReturnedAndKept closes the WAL under a shard: a
// put, a whole batch and the drop of a present key all come back with the
// error (a networked owner leaves them unacked), and the first failure
// stays in Durability().Err for owners — Store.Put — that have no error to
// return.
func TestShardAppendFailureIsReturnedAndKept(t *testing.T) {
	sh := openTestShard(t, t.TempDir(), 0)
	if err := sh.Put(1, []byte("durable"), 1); err != nil {
		t.Fatal(err)
	}
	sh.Abandon()
	first := sh.Put(2, []byte("lost"), 2)
	if first == nil {
		t.Fatal("put on a closed WAL returned no error")
	}
	if err := sh.PutBatch([]uint64{3, 4}, [][]byte{[]byte("lost"), []byte("too")}, 3); err == nil {
		t.Fatal("batch on a closed WAL returned no error")
	}
	if _, err := sh.Drop(1); err == nil {
		t.Fatal("drop on a closed WAL returned no error")
	}
	ds := sh.Durability()
	if ds.Err != first.Error() || ds.State != "crashed" || ds.DurableVersion != 1 || ds.WALRecords != 1 {
		t.Fatalf("durability after the failed appends: %+v (first error %q)", ds, first)
	}
	if mem := NewShard(); mem.Put(1, nil, 1) != nil || mem.Sync() != nil || mem.Durability().Enabled {
		t.Fatal("an in-memory shard has no log to fail")
	}
}

// TestShardConcurrentReadsVsWrites races single and multi-key reads
// against puts, batches, drops and the compactions they trigger on one
// shard (run under -race): a read sees a key absent or at one of its
// written values, never torn.
func TestShardConcurrentReadsVsWrites(t *testing.T) {
	sh := openTestShard(t, t.TempDir(), 16)
	defer sh.Abandon()
	const keys, writes = 32, 600
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			ks := make([]uint64, keys)
			for i := range ks {
				ks[i] = uint64(i)
			}
			vals, oks := make([][]byte, keys+1), make([]bool, keys+1)
			for {
				select {
				case <-done:
					return
				default:
				}
				sh.GetInto(ks, vals[:keys], oks[:keys])
				vals[keys], oks[keys] = sh.Get(3)
				for i, got := range vals {
					if oks[i] && (len(got) != 8 || got[0] != got[7]) {
						t.Errorf("torn value %v", got)
						return
					}
				}
				sh.Stats()
				sh.Durability()
			}
		}()
	}
	for w := uint64(1); w <= writes; w++ {
		k := w % keys
		if w%7 == 0 {
			if _, err := sh.Drop(k); err != nil {
				t.Fatal(err)
			}
			continue
		}
		vals := make([][]byte, 3)
		for i := range vals {
			vals[i] = bytes.Repeat([]byte{byte(w)}, 8)
		}
		var err error
		if w%5 == 0 {
			err = sh.PutBatch([]uint64{k, (k + 1) % keys, (k + 2) % keys}, vals, 4*w)
		} else {
			err = sh.Put(k, vals[0], 4*w)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
	if ds := sh.Durability(); ds.Snapshots == 0 || ds.WALRecords >= 16 || ds.Err != "" {
		t.Fatalf("compaction under load: %+v", ds)
	}
}

// groupFixture is a five-record batch with values of different lengths and
// where each record's WAL frame ends, in bytes from the start of the group.
func groupFixture() (keys []uint64, vals [][]byte, ends []int) {
	var frames []byte
	for i := 0; i < 5; i++ {
		keys = append(keys, uint64(10+i))
		vals = append(vals, []byte(fmt.Sprintf("value-%0*d", 3*i, i)))
		frames = appendRecord(frames, WALPut, keys[i], uint64(1+i), vals[i])
		ends = append(ends, len(frames))
	}
	return keys, vals, ends
}

// TestShardGroupIsItsRecords pins that a group is nothing on disk but its
// records: the log PutBatch writes equals, byte for byte, the log the
// parent's one-record Append writes for the same records, so either side
// replays the other's files.
func TestShardGroupIsItsRecords(t *testing.T) {
	keys, vals, ends := groupFixture()
	oneByOne, grouped := t.TempDir(), t.TempDir()
	w, err := OpenWAL(filepath.Join(oneByOne, "shard.wal"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := w.Append(WALPut, k, uint64(1+i), vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	sh := openTestShard(t, grouped, 0)
	if err := sh.PutBatch(keys, vals, 1); err != nil {
		t.Fatal(err)
	}
	if ds := sh.Durability(); ds.WALRecords != 5 || ds.WALBytes != int64(ends[4]) || ds.DurableVersion != 5 {
		t.Fatalf("durability after one group: %+v", ds)
	}
	sh.Abandon()
	a, err := os.ReadFile(filepath.Join(oneByOne, "shard.wal"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(grouped, "shard.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("a group of five is %d bytes, five appends %d: not the same log", len(b), len(a))
	}
	fromAppends, fromGroup := openTestShard(t, oneByOne, 0), openTestShard(t, grouped, 0)
	defer fromAppends.Abandon()
	defer fromGroup.Abandon()
	if x, y := shardImage(fromAppends, 20), shardImage(fromGroup, 20); len(x) != 5 || fmt.Sprint(x) != fmt.Sprint(y) {
		t.Fatalf("replayed images differ: appends %v, group %v", x, y)
	}
}

// TestShardGroupTornAtEveryOffset cuts the log at every byte offset inside a
// five-record group: the shard reopens to exactly the records whose frames
// are whole — a crash mid-group loses a suffix of the group, never a record
// ahead of one it kept — and goes on appending behind them.
func TestShardGroupTornAtEveryOffset(t *testing.T) {
	keys, vals, ends := groupFixture()
	src := t.TempDir()
	sh := openTestShard(t, src, 0)
	if err := sh.PutBatch(keys, vals, 1); err != nil {
		t.Fatal(err)
	}
	sh.Abandon()
	raw, err := os.ReadFile(filepath.Join(src, "shard.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(raw); cut++ {
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "shard.wal"), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := openTestShard(t, dir, 0)
		want := map[uint64]string{}
		for i := 0; i < whole; i++ {
			want[keys[i]] = string(vals[i])
		}
		if got := shardImage(re, 20); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut at %d of %d: reopened to %v, want the first %d records %v", cut, len(raw), got, whole, want)
		}
		if ds := re.Durability(); ds.WALRecords != int64(whole) || ds.DurableVersion != uint64(whole) {
			t.Fatalf("cut at %d: durability %+v, want %d records", cut, ds, whole)
		}
		if err := re.Put(99, []byte("after"), 100); err != nil {
			t.Fatal(err)
		}
		re.Abandon()
		again := openTestShard(t, dir, 0)
		want[99] = "after"
		if got := shardImage(again, 100); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut at %d: a put behind the torn group reopened to %v, want %v", cut, got, want)
		}
		again.Abandon()
	}
}

// TestShardGroupCompactsOnce drives groups across the snapshot threshold:
// the shard compacts after the group, once however far past the threshold
// the group went, the log restarts from zero records, and snapshot plus log
// reopen to everything.
func TestShardGroupCompactsOnce(t *testing.T) {
	dir := t.TempDir()
	sh := openTestShard(t, dir, 8)
	ver := uint64(1)
	batch := func(n int) {
		t.Helper()
		keys, vals := make([]uint64, n), make([][]byte, n)
		for i := range keys {
			keys[i], vals[i] = ver+uint64(i), []byte(fmt.Sprintf("v%d", ver+uint64(i)))
		}
		if err := sh.PutBatch(keys, vals, ver); err != nil {
			t.Fatal(err)
		}
		ver += uint64(n)
	}
	for _, st := range []struct {
		n                  int
		snapshots, records int64
	}{
		{5, 0, 5},  // under the threshold
		{5, 1, 0},  // 10 >= 8: one compaction, after the group
		{3, 1, 3},  // counting restarts from the group's end
		{20, 2, 0}, // two and a half thresholds in one group: still one
	} {
		batch(st.n)
		if ds := sh.Durability(); int64(ds.Snapshots) != st.snapshots || ds.WALRecords != st.records || ds.Err != "" {
			t.Fatalf("after a group of %d: %d snapshots, %d WAL records (%+v), want %d and %d", st.n, ds.Snapshots, ds.WALRecords, ds, st.snapshots, st.records)
		}
	}
	batch(2)
	want := shardImage(sh, int(ver))
	sh.Abandon()
	re := openTestShard(t, dir, 8)
	defer re.Abandon()
	if got := shardImage(re, int(ver)); len(got) != int(ver)-1 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("snapshot + log reopened to %d keys, want %d", len(got), ver-1)
	}
	if ds := re.Durability(); ds.DurableVersion != ver-1 || ds.WALRecords != 2 {
		t.Fatalf("recovered durability: %+v", ds)
	}
}
