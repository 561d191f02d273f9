package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
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
// and leave the log alone.
func TestShardLogsOnlyWhatChanged(t *testing.T) {
	sh := openTestShard(t, t.TempDir(), 0)
	defer sh.Abandon()
	put := func(val string, ver uint64) func() (bool, error) {
		return func() (bool, error) { return false, sh.Put(1, []byte(val), ver) }
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
		{"drop of present key", drop(1), true, 3, ""},
		{"second drop", drop(1), false, 3, ""},
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
	if ds := sh.Durability(); ds.DurableVersion != 6 || ds.State != "fresh" {
		t.Fatalf("durability after the steps: %+v", ds)
	}
	if st := sh.Stats(); st.Puts != 4 || st.Keys != 0 || st.Bytes != 0 || st.Gets != uint64(len(steps)) {
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
	defer sh.Abandon()
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
}

// TestShardAppendFailureIsReturnedAndKept closes the WAL under a shard: a
// put and the drop of a present key both come back with the error (a
// networked owner leaves them unacked), and the first failure stays in
// Durability().Err for owners — Store.Put — that have no error to return.
func TestShardAppendFailureIsReturnedAndKept(t *testing.T) {
	sh := openTestShard(t, t.TempDir(), 0)
	if err := sh.Put(1, []byte("durable"), 1); err != nil {
		t.Fatal(err)
	}
	sh.Abandon()
	if err := sh.Put(2, []byte("lost"), 2); err == nil {
		t.Fatal("put on a closed WAL returned no error")
	}
	if _, err := sh.Drop(1); err == nil {
		t.Fatal("drop on a closed WAL returned no error")
	}
	ds := sh.Durability()
	if ds.Err == "" || ds.State != "crashed" || ds.DurableVersion != 1 {
		t.Fatalf("durability after the failed appends: %+v", ds)
	}
	if mem := NewShard(); mem.Put(1, nil, 1) != nil || mem.Sync() != nil || mem.Durability().Enabled {
		t.Fatal("an in-memory shard has no log to fail")
	}
}

// TestShardConcurrentReadsVsWrites races single and multi-key reads
// against puts, drops and the compactions they trigger on one shard (run
// under -race): a read sees a key absent or at one of its written values,
// never torn.
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
		val := make([]byte, 8)
		for i := range val {
			val[i] = byte(w)
		}
		if err := sh.Put(k, val, w); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
	if ds := sh.Durability(); ds.Snapshots == 0 || ds.WALRecords >= 16 || ds.Err != "" {
		t.Fatalf("compaction under load: %+v", ds)
	}
}
