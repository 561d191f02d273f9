package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gstore"
)

// putKeys writes n distinct records through a direct connection to one
// durable shard, one record to a frame, and returns the encoded record used.
func putKeys(t *testing.T, addr string, n int) []byte { return putFrames(t, addr, n, 1) }

// putFrames writes keys [0,n) under one encoded record, which it returns,
// through a direct connection to one shard: per records to an OpMultiPut
// frame.
func putFrames(t *testing.T, addr string, n, per int) []byte {
	t.Helper()
	cn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	rec := gstore.Encode(nil, &gstore.Record{Node: 1, NodeLabel: 9})
	for k := 0; k < n; k += per {
		req := &Request{Op: OpMultiPut}
		for j := k; j < min(k+per, n); j++ {
			req.Keys, req.Values = append(req.Keys, uint64(j)), append(req.Values, rec)
		}
		if _, err := cn.Call(context.Background(), req); err != nil {
			t.Fatalf("%v from key %d: %v", req.Op, k, err)
		}
	}
	return rec
}

// TestStorageServerDurableCrashRestart kills a durable shard without any
// graceful shutdown and restarts it over the same directory: every acked
// put must come back, and the shard must report itself warm — whether the
// records arrived one to a frame or in groups.
func TestStorageServerDurableCrashRestart(t *testing.T) {
	for _, writer := range []struct {
		name string
		per  int // records to a frame
	}{{"put", 1}, {"multiput", 64}} {
		t.Run(writer.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := NewStorageServerDurable("127.0.0.1:0", dir, false)
			if err != nil {
				t.Fatal(err)
			}
			addr := srv.Addr()
			const n = 300
			rec := putFrames(t, addr, n, writer.per)
			st := srv.Stats().Storage
			if st.Durable != "fresh" || st.DurableVersion != n || st.WALRecords != n {
				t.Fatalf("pre-crash stats: %+v", st)
			}
			srv.Close() // abandons the WAL fd — the crash path, no final sync

			restarted, err := NewStorageServerDurable(addr, dir, false)
			if err != nil {
				t.Fatalf("restart over %s: %v", dir, err)
			}
			defer restarted.Close()
			st = restarted.Stats().Storage
			if st.Durable != "warm" {
				t.Fatalf("restarted shard state = %q, want warm", st.Durable)
			}
			if st.Keys != n || st.DurableVersion != n {
				t.Fatalf("restarted shard: keys %d dur-ver %d, want %d", st.Keys, st.DurableVersion, n)
			}
			if st.ReplayedBytes == 0 {
				t.Fatal("restarted shard reports no replayed bytes")
			}
			for _, key := range []uint64{0, 7, 63, 64, n - 1} {
				if val, found := storedAt(t, restarted.Addr(), key); !found || !bytes.Equal(val, rec) {
					t.Fatalf("get %d after restart: found=%v value=%x", key, found, val)
				}
			}
		})
	}
}

// TestStoragePutBatchConcurrent has several writers push batches of their
// own keys through one client onto two durable shards at R=2 (run under
// -race): frames of different writers interleave on each shard, every frame
// takes its own version range and its own WAL group, and both replicas end
// holding — and having logged — every record exactly once.
func TestStoragePutBatchConcurrent(t *testing.T) {
	var servers []*StorageServer
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := NewStorageServerDurable("127.0.0.1:0", t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers, addrs = append(servers, srv), append(addrs, srv.Addr())
	}
	sc, err := DialStorageReplicated(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	const writers, batches, perBatch = 6, 20, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				keys, vals := make([]uint64, perBatch), make([][]byte, perBatch)
				for i := range keys {
					keys[i] = uint64((w*batches+b)*perBatch + i)
					vals[i] = binary.LittleEndian.AppendUint64(nil, keys[i])
				}
				if err := sc.PutBatch(context.Background(), keys, vals); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	const total = writers * batches * perBatch
	for i, srv := range servers {
		if st := srv.Stats().Storage; st.Keys != total || st.WALRecords != total || st.DurableVersion != total {
			t.Fatalf("shard %d: %d keys, %d WAL records, version %d; want %d of each", i, st.Keys, st.WALRecords, st.DurableVersion, total)
		}
	}
	for key := uint64(0); key < total; key += 97 {
		for _, addr := range addrs {
			if val, found := storedAt(t, addr, key); !found || binary.LittleEndian.Uint64(val) != key {
				t.Fatalf("key %d on %s: found=%v value=%x", key, addr, found, val)
			}
		}
	}
}

// callOK sends req on a direct connection to addr and fails the test unless
// the shard accepts it.
func callOK(t *testing.T, addr string, req *Request) Response {
	t.Helper()
	cn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	resp, err := cn.Call(context.Background(), req)
	if err != nil {
		t.Fatalf("%v of keys %v: %v", req.Op, req.Keys, err)
	}
	return resp
}

// overwrite puts a size-byte value under each of keys, rounds times over,
// through a direct connection to one shard.
func overwrite(t *testing.T, addr string, keys []uint64, size, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			callOK(t, addr, &Request{Op: OpMultiPut, Keys: []uint64{k}, Values: [][]byte{bytes.Repeat([]byte{byte(r)}, size)}})
		}
	}
}

// TestStorageServerDurableSnapshotCompaction overwrites a durable shard's
// keys until it cleans its records and checks the WAL was compacted to the
// live records — no snapshot file beside it — and a restart over the
// compacted log still recovers everything.
func TestStorageServerDurableSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewStorageServerDurable("127.0.0.1:0", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	const n = 130
	putKeys(t, srv.Addr(), n)
	// 8 KiB overwrites of four keys: ten rounds leave 288 KiB dead.
	overwrite(t, srv.Addr(), []uint64{0, 1, 2, 3}, 8<<10, 10)
	st := srv.Stats().Storage
	if st.Snapshots == 0 {
		t.Fatal("no compaction once the records were cleaned")
	}
	if st.WALRecords >= n+40 {
		t.Fatalf("WAL not compacted: %d records", st.WALRecords)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard.snap")); !os.IsNotExist(err) {
		t.Fatalf("a snapshot file beside the log (err=%v)", err)
	}
	addr := srv.Addr()
	srv.Close()

	restarted, err := NewStorageServerDurable(addr, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if st := restarted.Stats().Storage; st.Keys != n || st.Durable != "warm" {
		t.Fatalf("restart after compaction: keys %d state %q", st.Keys, st.Durable)
	}
	if v, ok := storedAt(t, addr, 3); !ok || len(v) != 8<<10 || v[0] != 9 {
		t.Fatalf("key 3 after the restart: found=%v, %d bytes", ok, len(v))
	}
}

// TestStorageServerDurableCrashLoopCompacts restarts a durable shard again
// and again, each life overwriting four keys with 12 KiB values: 48 KiB, too
// little for one life's writes to reach the 64 KiB a cleaning needs. The
// replayed records count toward it, so the log still compacts and does not
// grow (with every restart replaying all of it) for ever.
func TestStorageServerDurableCrashLoopCompacts(t *testing.T) {
	dir := t.TempDir()
	addr := "127.0.0.1:0"
	keys := []uint64{0, 1, 2, 3}
	const lives, size = 8, 12 << 10
	for life := 0; ; life++ {
		srv, err := NewStorageServerDurable(addr, dir, false)
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		addr = srv.Addr()
		if life == lives {
			defer srv.Close()
			st := srv.Stats().Storage
			if st.WALRecords >= int64(lives*len(keys)/2) || st.WALBytes >= int64(lives*len(keys)*size/2) {
				t.Fatalf("after %d short lives: %d WAL records, %d bytes", lives, st.WALRecords, st.WALBytes)
			}
			for _, k := range keys {
				if v, ok := storedAt(t, addr, k); !ok || len(v) != size {
					t.Fatalf("key %d after the crash loop: found=%v, %d bytes", k, ok, len(v))
				}
			}
			return
		}
		overwrite(t, addr, keys, size, 1)
		srv.Close()
	}
}

// TestStorageServerDurableVersionHolds drops the shard's highest-versioned
// key, and the drop sets off the cleaning that compacts the log: no record
// left carries that version, but the compacted log's mark does, so after a
// restart the shard still announces it and stamps its next write above it.
func TestStorageServerDurableVersionHolds(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewStorageServerDurable("127.0.0.1:0", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	overwrite(t, addr, []uint64{1}, 40<<10, 2) // versions 1, 2: 40 KiB dead
	overwrite(t, addr, []uint64{2}, 30<<10, 1) // version 3
	if _, found := storedAt(t, addr, 2); !found {
		t.Fatal("key 2 missing before its drop")
	}
	callOK(t, addr, &Request{Op: OpDrop, Keys: []uint64{2}})
	if _, found := storedAt(t, addr, 2); found {
		t.Fatal("key 2 still stored after its drop")
	}
	if st := srv.Stats().Storage; st.Snapshots != 1 || st.WALRecords != 1 || st.DurableVersion != 3 {
		t.Fatalf("after the drop: %+v, want one compaction to one record at version 3", st)
	}
	srv.Close()

	restarted, err := NewStorageServerDurable(addr, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if st := restarted.Stats().Storage; st.DurableVersion != 3 {
		t.Fatalf("restarted shard announces version %d, want 3", st.DurableVersion)
	}
	overwrite(t, addr, []uint64{7}, 1, 1)
	if st := restarted.Stats().Storage; st.DurableVersion != 4 {
		t.Fatalf("the first write after the restart took version %d, want 4", st.DurableVersion)
	}
}

// TestStorageServerDurableFsync exercises the fsync-per-append mode end
// to end (correctness, not crash injection — the machine-crash guarantee
// is fsync's contract).
func TestStorageServerDurableFsync(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewStorageServerDurable("127.0.0.1:0", dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	putKeys(t, srv.Addr(), 20)
	if err := srv.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats().Storage; st.DurableVersion != 20 {
		t.Fatalf("dur-ver = %d, want 20", st.DurableVersion)
	}
}

// TestStorageRejoinWarmHandshake restarts a durable registered shard and
// checks the router's snapshot reflects the durable version it announced
// on rejoin — the rejoin-warm handshake.
func TestStorageRejoinWarmHandshake(t *testing.T) {
	g := gen.LocalWeb(400, 8, 40, 0.01, 2)
	d, _ := startLoopback(t, g, core.Config{StorageServers: 1, Processors: 1, Policy: core.PolicyHash, StorageDir: t.TempDir()})
	rs := d.router
	const slot = 0
	wantVer := d.storage[slot].Stats().Storage.DurableVersion
	if wantVer == 0 {
		t.Fatal("durable shard loaded a graph but reports version 0")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	snap, err := rs.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.PerStorage) != 1 {
		t.Fatalf("%d storage rows, want 1", len(snap.PerStorage))
	}
	row := snap.PerStorage[0]
	if row.Durable != "fresh" || row.DurableVersion != wantVer || row.WALBytes == 0 {
		t.Fatalf("live durable row: %+v", row)
	}

	// Crash the shard and restart it over its directory on the same
	// address; the re-register must carry the recovered watermark.
	if err := d.KillStorage(slot); err != nil {
		t.Fatal(err)
	}
	if err := d.RestartStorage(ctx, slot); err != nil {
		t.Fatal(err)
	}
	// Only a join that went through remembers the router, and the
	// restarted server is new, so RestartStorage itself must have joined.
	reg := &d.storage[slot].registration
	reg.regMu.Lock()
	joined := reg.routerAddr
	reg.regMu.Unlock()
	if joined != d.router.Addr() {
		t.Fatalf("restarted shard registered with %q, want the router %q", joined, d.router.Addr())
	}
	// The router's pooled connections to the crashed instance break on
	// their first use after the restart; the pool re-dials, so the stats
	// poll goes through within a retry or two.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err = rs.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		row = snap.PerStorage[0]
		if row.Durable == "warm" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined shard state = %q, want warm (row %+v)", row.Durable, row)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if row.DurableVersion != wantVer {
		t.Fatalf("rejoined durable version = %d, want %d", row.DurableVersion, wantVer)
	}
}
