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

	"repro/internal/gen"
	"repro/internal/gstore"
)

// putKeys writes n distinct records through a direct connection to one
// durable shard, one OpPut each, and returns the encoded record used.
func putKeys(t *testing.T, addr string, n int) []byte { return putFrames(t, addr, n, 1) }

// putFrames writes keys [0,n) under one encoded record, which it returns,
// through a direct connection to one shard: per records to a frame, as
// OpMultiPut — or, with per == 1, as the single-record OpPut.
func putFrames(t *testing.T, addr string, n, per int) []byte {
	t.Helper()
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	rec := gstore.Encode(nil, &gstore.Record{Node: 1, NodeLabel: 9})
	for k := 0; k < n; k += per {
		req := &Request{Op: OpPut, Key: uint64(k), Value: rec}
		if per > 1 {
			req = &Request{Op: OpMultiPut}
			for j := k; j < min(k+per, n); j++ {
				req.Keys, req.Values = append(req.Keys, uint64(j)), append(req.Values, rec)
			}
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
			st := srv.Stats()
			if st.Durable != "fresh" || st.DurableVersion != n || st.WALRecords != n {
				t.Fatalf("pre-crash stats: %+v", st)
			}
			srv.Close() // abandons the WAL fd — the crash path, no final sync

			restarted, err := NewStorageServerDurable(addr, dir, false)
			if err != nil {
				t.Fatalf("restart over %s: %v", dir, err)
			}
			defer restarted.Close()
			st = restarted.Stats()
			if st.Durable != "warm" {
				t.Fatalf("restarted shard state = %q, want warm", st.Durable)
			}
			if st.Keys != n || st.DurableVersion != n {
				t.Fatalf("restarted shard: keys %d dur-ver %d, want %d", st.Keys, st.DurableVersion, n)
			}
			if st.ReplayedBytes == 0 {
				t.Fatal("restarted shard reports no replayed bytes")
			}
			cn, err := Dial(restarted.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cn.Close()
			for _, key := range []uint64{0, 7, 63, 64, n - 1} {
				resp, err := cn.Call(context.Background(), &Request{Op: OpGet, Key: key})
				if err != nil || !resp.Found || !bytes.Equal(resp.Value, rec) {
					t.Fatalf("get %d after restart: found=%v err=%v value=%x", key, resp.Found, err, resp.Value)
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
		if st := srv.Stats(); st.Keys != total || st.WALRecords != total || st.DurableVersion != total {
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

// TestStorageServerDurableSnapshotCompaction drives a durable shard past
// its snapshot threshold and checks the WAL is truncated, the snapshot
// file exists, and a restart over snapshot + short WAL still recovers
// everything.
func TestStorageServerDurableSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewStorageServerDurable("127.0.0.1:0", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetSnapshotEvery(50)
	const n = 130
	putKeys(t, srv.Addr(), n)
	st := srv.Stats()
	if st.Snapshots == 0 {
		t.Fatal("no snapshot written past the threshold")
	}
	if st.WALRecords >= 50 {
		t.Fatalf("WAL not truncated by compaction: %d records", st.WALRecords)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard.snap")); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	addr := srv.Addr()
	srv.Close()

	restarted, err := NewStorageServerDurable(addr, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if st := restarted.Stats(); st.Keys != n || st.Durable != "warm" {
		t.Fatalf("restart after compaction: keys %d state %q", st.Keys, st.Durable)
	}
}

// TestStorageServerDurableCrashLoopCompacts restarts a durable shard again
// and again before any single life reaches the snapshot threshold: the
// replayed WAL records must count toward it, or the log grows (and every
// restart replays all of it) for ever.
func TestStorageServerDurableCrashLoopCompacts(t *testing.T) {
	dir := t.TempDir()
	addr := "127.0.0.1:0"
	const n = 40
	for life := 0; ; life++ {
		srv, err := NewStorageServerDurable(addr, dir, false)
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		srv.SetSnapshotEvery(50)
		addr = srv.Addr()
		if life == 5 {
			defer srv.Close()
			st := srv.Stats()
			if st.WALRecords >= 50 || st.Snapshots == 0 {
				t.Fatalf("after 5 short lives: %d WAL records, %d snapshots", st.WALRecords, st.Snapshots)
			}
			cn, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cn.Close()
			for k := uint64(0); k < n; k++ {
				if resp, err := cn.Call(context.Background(), &Request{Op: OpGet, Key: k}); err != nil || !resp.Found {
					t.Fatalf("key %d after the crash loop: found=%v err=%v", k, resp.Found, err)
				}
			}
			return
		}
		putKeys(t, addr, n)
		srv.Close()
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
	if st := srv.Stats(); st.DurableVersion != 20 {
		t.Fatalf("dur-ver = %d, want 20", st.DurableVersion)
	}
}

// TestStorageRejoinWarmHandshake restarts a durable registered shard and
// checks the router's snapshot reflects the durable version it announced
// on rejoin — the rejoin-warm handshake.
func TestStorageRejoinWarmHandshake(t *testing.T) {
	g := gen.LocalWeb(400, 8, 40, 0.01, 2)
	dir := t.TempDir()
	srv, err := NewStorageServerDurable("127.0.0.1:0", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	storageAddrs := []string{srv.Addr()}
	sc, err := DialStorageReplicated(storageAddrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.LoadGraph(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	ps, err := NewProcessorServerWith("127.0.0.1:0", ProcessorConfig{Storage: storageAddrs, CacheBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	rs, err := NewRouterServer("127.0.0.1:0", RouterConfig{ProcessorAddrs: []string{ps.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	slot, err := srv.Register(context.Background(), rs.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	wantVer := srv.Stats().DurableVersion
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
	addr := srv.Addr()
	srv.Close()
	restarted, err := NewStorageServerDurable(addr, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })
	again, err := restarted.Register(context.Background(), rs.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	if again != slot {
		t.Fatalf("rejoin slot = %d, want %d", again, slot)
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
