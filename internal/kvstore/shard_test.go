package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// openTestShard opens a durable shard over dir with the TCP daemon's file
// layout.
func openTestShard(t *testing.T, dir string) *Shard {
	t.Helper()
	sh, err := OpenShard(filepath.Join(dir, "shard.wal"), false)
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
	sh := openTestShard(t, t.TempDir())
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

// copyFixture copies the files of testdata/<name> — a directory the parent
// format's own code wrote — into a fresh temp directory and returns it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []string{"shard.snap", "shard.wal"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name, f))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, f), raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// walOpensWithMark reports whether the log in dir opens with the mark a
// compaction writes: a snapshot beside it would be stale.
func walOpensWithMark(dir string) bool {
	return !parentFormat(filepath.Join(dir, "shard.wal"), parentSnap)
}

// TestShardSnapshotOverlappingWALConverges opens the state a parent-format
// crash between the snapshot's rename and the WAL's truncation left —
// testdata/parent-overlap, written by the parent's code: keys 0..19 put as
// "a<k>", every third overwritten as "b<k>", 1, 6, 11 and 16 dropped, 6
// put back, then the snapshot, then a tail putting 7 and dropping 0, with
// the log still holding every record the snapshot covers. Replay converges
// on the live image, the directory migrates — the log compacted, the
// snapshot gone — and the compacted log alone reopens to the same image.
func TestShardSnapshotOverlappingWALConverges(t *testing.T) {
	want := map[uint64]string{}
	for k := uint64(0); k < 20; k++ {
		want[k] = fmt.Sprintf("a%d", k)
		if k%3 == 0 {
			want[k] = fmt.Sprintf("b%d", k)
		}
		if k%5 == 1 {
			delete(want, k)
		}
	}
	want[6], want[7] = "back", "tail"
	delete(want, 0)
	const ver = 29 // 20 puts, 7 overwrites and two re-puts

	dir := copyFixture(t, "parent-overlap")
	re := openTestShard(t, dir)
	if got := shardImage(re, 20); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed image %v, want %v", got, want)
	}
	if ds := re.Durability(); ds.State != "warm" || ds.DurableVersion != ver || ds.Snapshots != 1 || ds.WALRecords != int64(len(want)) {
		t.Fatalf("recovered durability: %+v (want warm at version %d, compacted once to %d records)", ds, ver, len(want))
	}
	if st := re.Stats(); st.Keys != len(want) {
		t.Fatalf("recovered %d live keys, want %d", st.Keys, len(want))
	}
	if _, err := os.Stat(filepath.Join(dir, "shard.snap")); !os.IsNotExist(err) || !walOpensWithMark(dir) {
		t.Fatalf("the directory did not migrate: snapshot err=%v, mark %v", err, walOpensWithMark(dir))
	}
	re.Abandon()
	again := openTestShard(t, dir)
	defer again.Abandon()
	if got := shardImage(again, 20); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the compacted log reopened to %v, want %v", got, want)
	}
	if ds := again.Durability(); ds.DurableVersion != ver || ds.Snapshots != 0 || ds.ReplayedRecords != int64(len(want)) {
		t.Fatalf("reopened compacted log: %+v", ds)
	}
}

// TestShardOpensParentFormatDirectory opens testdata/parent-format, the
// directory the TCP shard wrote before it shared this code — snapshot
// records all at version 0 under watermark 100, then a WAL tail versioned
// above it (put 3, put 10, drop 4), written by the parent's own code — and
// checks every key comes back, the watermark is the tail's, a write stamped
// above it replaces a version-0 record, and the directory migrates to one
// compacted log. A crash between the migration's rename and its unlink
// leaves the snapshot beside a compacted log: the reopen ignores it.
func TestShardOpensParentFormatDirectory(t *testing.T) {
	dir := copyFixture(t, "parent-format")
	const watermark = 100
	sh := openTestShard(t, dir)
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
	if ds.State != "warm" || ds.DurableVersion != watermark+11 || ds.ReplayedRecords != 13 || ds.Snapshots != 1 {
		t.Fatalf("recovered durability: %+v", ds)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard.snap")); !os.IsNotExist(err) || !walOpensWithMark(dir) {
		t.Fatalf("the directory did not migrate: snapshot err=%v", err)
	}
	if err := sh.Put(5, []byte("new"), ds.DurableVersion+1); err != nil {
		t.Fatal(err)
	}
	if v, _ := sh.Get(5); string(v) != "new" {
		t.Fatalf("write above the watermark lost to a version-0 record: %q", v)
	}
	// A group appended behind the compacted image shares its log: both
	// replay, in order.
	if err := sh.PutBatch([]uint64{6, 3}, [][]byte{[]byte("group6"), []byte("group3")}, ds.DurableVersion+2); err != nil {
		t.Fatal(err)
	}
	want[5], want[6], want[3] = "new", "group6", "group3"
	sh.Abandon()
	re := openTestShard(t, dir)
	if got := shardImage(re, 12); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("image after a group behind the compacted image %v, want %v", got, want)
	}
	re.Abandon()

	// The crash between the rename and the unlink.
	raw, err := os.ReadFile(parentSnap)
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "shard.snap"), raw, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	again := openTestShard(t, dir)
	defer again.Abandon()
	if got := shardImage(again, 12); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("image with a stale snapshot beside the log %v, want %v", got, want)
	}
	if ds := again.Durability(); ds.ReplayedRecords != int64(len(want))+3 || ds.Snapshots != 0 {
		t.Fatalf("the stale snapshot was replayed: %+v", ds)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard.snap")); !os.IsNotExist(err) {
		t.Fatalf("the stale snapshot stays (err=%v)", err)
	}
}

// TestShardCountersMapsARestartedShard pins the storage row's one mapping: a
// durable shard that was killed, reopened over its directory and compacted
// reports its keys, reads, compaction and recovered log through Counters
// field for field; an in-memory shard's row has no durable half; and a
// store's row for a slot is its shard's, misses, failovers and repair copies
// included.
func TestShardCountersMapsARestartedShard(t *testing.T) {
	dir := t.TempDir()
	sh := openTestShard(t, dir)
	for k := uint64(1); k <= 3; k++ {
		if err := sh.Put(k, []byte("abcd"), k); err != nil {
			t.Fatal(err)
		}
	}
	sh.Abandon()
	fi, err := os.Stat(filepath.Join(dir, "shard.wal"))
	if err != nil {
		t.Fatal(err)
	}
	re := openTestShard(t, dir)
	defer re.Abandon()
	// Three 40 KiB values under one key leave 80 KiB dead: the records are
	// cleaned and the log compacts to the four keys; the drop follows it.
	big := make([]byte, 40<<10)
	for v := uint64(4); v <= 6; v++ {
		if err := re.Put(9, big, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := re.Drop(9); err != nil {
		t.Fatal(err)
	}
	re.Get(1)
	re.Get(9)
	got, ds := re.Counters(), re.Durability()
	want := metrics.StorageCounters{
		Keys: 3, Bytes: 12, Gets: 2,
		Durable: "warm", WALBytes: ds.WALBytes, WALRecords: 5, Snapshots: 1, DurableVersion: 6,
		ReplayedBytes: fi.Size(), RecoverNanos: ds.RecoverNanos,
	}
	if got != want || got.WALBytes <= int64(len(big)) || got.WALBytes >= 2*int64(len(big)) {
		t.Fatalf("restarted shard's row %+v, want %+v with one 40 KiB record in the log", got, want)
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
	// A read whose every replica is parted fails over to nothing.
	for slot := 0; slot < 2; slot++ {
		if err := s.PartitionServer(slot); err != nil {
			t.Fatal(err)
		}
	}
	if batches, _ := readBatch(s, []uint64{1}); !errors.Is(batchErr(batches), ErrNoLiveReplica) {
		t.Fatalf("read with every replica parted: %v, want ErrNoLiveReplica", batchErr(batches))
	}
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
	sh := openTestShard(t, t.TempDir())
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
	sh := openTestShard(t, t.TempDir())
	defer sh.Abandon()
	const keys, writes, size = 32, 600, 512
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
					if oks[i] && (len(got) != size || got[0] != got[size-1]) {
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
			vals[i] = bytes.Repeat([]byte{byte(w)}, size)
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
	// 600 writes of 512 bytes over 32 keys leave far more than a segment
	// dead: the log compacts, and what it holds is the last image and its
	// tail, not every write.
	if ds := sh.Durability(); ds.Snapshots == 0 || ds.WALRecords >= writes/2 || ds.Err != "" {
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
	sh := openTestShard(t, grouped)
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
	fromAppends, fromGroup := openTestShard(t, oneByOne), openTestShard(t, grouped)
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
	sh := openTestShard(t, src)
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
		re := openTestShard(t, dir)
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
		again := openTestShard(t, dir)
		want[99] = "after"
		if got := shardImage(again, 100); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut at %d: a put behind the torn group reopened to %v, want %v", cut, got, want)
		}
		again.Abandon()
	}
}

// TestShardGroupCompactsOnce drives groups of 16 KiB overwrites of four
// keys across the clean rule: the log compacts after the group that set the
// cleaning off, never inside it — the file is then the four keys' image,
// not the image plus the group's tail — once however many cleanings the
// group went through, and the compacted log plus what follows it reopens to
// everything.
func TestShardGroupCompactsOnce(t *testing.T) {
	dir := t.TempDir()
	sh := openTestShard(t, dir)
	const size = 16 << 10
	ver := uint64(1)
	batch := func(n int) {
		t.Helper()
		keys, vals := make([]uint64, n), make([][]byte, n)
		for i := range keys {
			keys[i], vals[i] = (ver+uint64(i))%4, bytes.Repeat([]byte{byte(ver + uint64(i))}, size)
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
		{4, 0, 4},  // four fresh keys: 64 KiB live, nothing dead
		{6, 1, 4},  // the fourth overwrite brings 64 KiB dead: clean, compact after the group
		{1, 1, 5},  // 48 KiB dead: the log grows again from the image
		{11, 2, 4}, // three cleanings in one group: still one compaction
	} {
		batch(st.n)
		if ds := sh.Durability(); int64(ds.Snapshots) != st.snapshots || ds.WALRecords != st.records || ds.Err != "" {
			t.Fatalf("after a group of %d: %d compactions, %d WAL records (%+v), want %d and %d", st.n, ds.Snapshots, ds.WALRecords, ds, st.snapshots, st.records)
		}
	}
	batch(1) // 48 KiB dead: a tail behind the image
	want := shardImage(sh, 4)
	sh.Abandon()
	re := openTestShard(t, dir)
	defer re.Abandon()
	if got := shardImage(re, 4); len(got) != 4 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the compacted log reopened to %d keys, want 4", len(got))
	}
	if ds := re.Durability(); ds.DurableVersion != ver-1 || ds.WALRecords != 5 || ds.Snapshots != 0 {
		t.Fatalf("recovered durability: %+v", ds)
	}
}

// TestShardDurableVersionNeverFalls drops the key holding the highest
// version, compacts and reopens: no record carries that version any more,
// but the compacted log's mark does, so the durable version holds.
func TestShardDurableVersionNeverFalls(t *testing.T) {
	dir := t.TempDir()
	sh := openTestShard(t, dir)
	for k := uint64(1); k <= 3; k++ {
		if err := sh.Put(k, []byte("v"), 10*k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sh.Drop(3); err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	err := sh.compact()
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if ds := sh.Durability(); ds.DurableVersion != 30 || ds.WALRecords != 2 {
		t.Fatalf("after the compaction: %+v, want version 30 over two records", ds)
	}
	sh.Abandon()
	re := openTestShard(t, dir)
	defer re.Abandon()
	if ds := re.Durability(); ds.DurableVersion != 30 || ds.ReplayedRecords != 2 {
		t.Fatalf("reopened: %+v, want version 30 over two records", ds)
	}
}

// TestShardBulkLoadDoesNotCompact loads N fresh keys in groups, the way a
// loader fills a durable shard: nothing is replaced, so nothing is cleaned,
// and the log is exactly the N records — no whole-shard rewrite at all.
func TestShardBulkLoadDoesNotCompact(t *testing.T) {
	sh := openTestShard(t, t.TempDir())
	defer sh.Abandon()
	const n, per = 80 * 256, 256
	val := make([]byte, 40)
	for first := 0; first < n; first += per {
		keys, vals := make([]uint64, per), make([][]byte, per)
		for i := range keys {
			keys[i], vals[i] = uint64(first+i), val
		}
		if err := sh.PutBatch(keys, vals, uint64(first+1)); err != nil {
			t.Fatal(err)
		}
	}
	if ds := sh.Durability(); ds.Snapshots != 0 || ds.WALRecords != n || ds.DurableVersion != n {
		t.Fatalf("after a load of %d fresh keys: %+v, want no compaction and %d records", n, ds, n)
	}
}

// TestShardWALBytesBoundedUnderOverwrites overwrites 64 keys with 100-byte
// values 20,000 times. Between compactions the log holds the last image and
// the frames written since, one per in-memory record; a frame is its record
// plus at most 19 bytes (header, op, key), and a record here is at least 102
// bytes. The clean rule keeps dead below max(live, segSize), so the file
// stays under 20 + (2 × live + segSize) × 121/102 — about twice the live
// bytes plus a segment, the bound the shard's memory keeps.
func TestShardWALBytesBoundedUnderOverwrites(t *testing.T) {
	sh := openTestShard(t, t.TempDir())
	defer sh.Abandon()
	const keys, writes, size = 64, 20000, 100
	var peak int64
	for w := 0; w < writes; w++ {
		if err := sh.Put(uint64(w%keys), bytes.Repeat([]byte{byte(w)}, size), uint64(w+1)); err != nil {
			t.Fatal(err)
		}
		ds := sh.Durability()
		sh.mu.RLock()
		bound := 20 + (2*sh.recs.live+segSize)*121/102
		sh.mu.RUnlock()
		if ds.WALBytes > bound {
			t.Fatalf("after %d writes the WAL holds %d bytes, over the bound %d", w+1, ds.WALBytes, bound)
		}
		peak = max(peak, ds.WALBytes)
	}
	if ds := sh.Durability(); ds.Snapshots < 10 {
		t.Fatalf("%d compactions over %d writes of %d bytes (peak WAL %d bytes)", ds.Snapshots, writes, size, peak)
	}
}

// TestShardReplayThatCleansCompactsAtOpen opens a log that holds ten 16 KiB
// versions of one key — what a shard killed between a cleaning and its
// compaction leaves, or a parent-format log, which compacted only every 4096
// records: the replay cleans the records, so the shard compacts the log
// before it serves, and the file is one record when open returns.
func TestShardReplayThatCleansCompactsAtOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(filepath.Join(dir, "shard.wal"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 10; v++ {
		if err := w.Append(WALPut, 1, v, bytes.Repeat([]byte{byte(v)}, 16<<10)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	sh := openTestShard(t, dir)
	defer sh.Abandon()
	ds := sh.Durability()
	if ds.Snapshots != 1 || ds.WALRecords != 1 || ds.ReplayedRecords != 10 || ds.DurableVersion != 10 {
		t.Fatalf("after the open: %+v, want one compaction to one record", ds)
	}
	if fi, err := os.Stat(filepath.Join(dir, "shard.wal")); err != nil || fi.Size() != ds.WALBytes || fi.Size() > 17<<10 {
		t.Fatalf("the log on disk: %v (err %v), stats claim %d bytes", fi, err, ds.WALBytes)
	}
	if v, _ := sh.Get(1); len(v) != 16<<10 || v[0] != 10 {
		t.Fatalf("key 1 reads %d bytes, version byte %d", len(v), v[0])
	}
}

// TestShardFailedCompactionIsRetried moves a shard's directory away under
// it: appends still reach the open log, but the compaction a cleaning asks
// for cannot create its temp file. The write that set the cleaning off is
// logged yet returns the error (a networked owner leaves it unacked), which
// Durability().Err keeps. Writes after it do not rewrite the shard again;
// once the directory is back, the next cleaning compacts — with fsync on,
// the directory fsync included.
func TestShardFailedCompactionIsRetried(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shard")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sh, err := OpenShard(filepath.Join(dir, "shard.wal"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Abandon()
	big := make([]byte, 40<<10)
	put := func(key uint64, val []byte, ver uint64) {
		t.Helper()
		if err := sh.Put(key, val, ver); err != nil {
			t.Fatal(err)
		}
	}
	put(1, big, 1)
	put(1, big, 2)
	if err := os.Rename(dir, dir+".away"); err != nil {
		t.Fatal(err)
	}
	if err := sh.Put(1, big, 3); err == nil { // 80 KiB dead: a cleaning
		t.Fatal("a compaction with no directory to write in returned no error")
	}
	put(2, []byte("x"), 4) // no cleaning, no second attempt
	if ds := sh.Durability(); ds.Err == "" || ds.Snapshots != 0 || ds.WALRecords != 4 {
		t.Fatalf("after the failed compaction: %+v", ds)
	}
	if err := os.Rename(dir+".away", dir); err != nil {
		t.Fatal(err)
	}
	put(1, big, 5)
	put(1, big, 6) // 80 KiB dead again: the next cleaning
	if ds := sh.Durability(); ds.Snapshots != 1 || ds.WALRecords != 2 || ds.DurableVersion != 6 {
		t.Fatalf("after the next cleaning: %+v", ds)
	}
	sh.Abandon()
	re := openTestShard(t, dir)
	defer re.Abandon()
	if v, _ := re.Get(1); len(v) != len(big) || shardImage(re, 3)[2] != "x" {
		t.Fatalf("reopened: key 1 holds %d bytes, image %v", len(v), shardImage(re, 3))
	}
}

// TestShardRefusesCorruptParentSnapshot opens a parent-format directory
// whose snapshot is damaged: the open fails, and neither file is touched —
// the snapshot is not unlinked and the log not compacted over it.
func TestShardRefusesCorruptParentSnapshot(t *testing.T) {
	dir := copyFixture(t, "parent-format")
	snap, wal := filepath.Join(dir, "shard.snap"), filepath.Join(dir, "shard.wal")
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if sh, err := OpenShard(wal, false); err == nil {
		sh.Abandon()
		t.Fatal("a damaged snapshot opened")
	}
	after, err := os.ReadFile(wal)
	if _, serr := os.Stat(snap); err != nil || serr != nil || !bytes.Equal(before, after) {
		t.Fatalf("the failed open touched the directory: log err %v, snapshot err %v, log changed %v", err, serr, !bytes.Equal(before, after))
	}
}
