package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

type walRec struct {
	op  WALOp
	key uint64
	ver uint64
	val []byte
}

func appendRecs(t *testing.T, path string, recs []walRec) *WAL {
	t.Helper()
	w, err := OpenWAL(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r.op, r.key, r.ver, r.val); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func replayRecs(t *testing.T, path string) []walRec {
	t.Helper()
	var got []walRec
	if _, _, err := replayWAL(path, func(op WALOp, key, ver uint64, val []byte) {
		got = append(got, walRec{op, key, ver, append([]byte(nil), val...)})
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func sampleRecs(n int, rng *rand.Rand) []walRec {
	recs := make([]walRec, n)
	for i := range recs {
		r := walRec{key: rng.Uint64() % 1000, ver: uint64(i + 1)}
		switch rng.Intn(4) {
		case 0:
			r.op = WALTomb
		case 1:
			r.op = WALDrop
		default:
			r.op = WALPut
			r.val = make([]byte, rng.Intn(64))
			rng.Read(r.val)
		}
		recs[i] = r
	}
	return recs
}

func recsEqual(a, b []walRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].op != b[i].op || a[i].key != b[i].key || a[i].ver != b[i].ver || !bytes.Equal(a[i].val, b[i].val) {
			return false
		}
	}
	return true
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	recs := sampleRecs(200, rand.New(rand.NewSource(1)))
	w := appendRecs(t, path, recs)
	bytes0, records, durVer := w.Stats()
	if records != 200 || durVer != 200 {
		t.Fatalf("Stats = (%d, %d, %d)", bytes0, records, durVer)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayRecs(t, path); !recsEqual(got, recs) {
		t.Fatalf("replay mismatch: %d records vs %d", len(got), len(recs))
	}
}

func TestWALReopenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	recs := sampleRecs(50, rand.New(rand.NewSource(2)))
	appendRecs(t, path, recs[:30]).Close()
	w, err := OpenWAL(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[30:] {
		if err := w.Append(r.op, r.key, r.ver, r.val); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if got := replayRecs(t, path); !recsEqual(got, recs) {
		t.Fatalf("replay after reopen lost records: %d vs %d", len(got), len(recs))
	}
}

func TestWALMissingFileReplaysEmpty(t *testing.T) {
	records, good, err := replayWAL(filepath.Join(t.TempDir(), "absent.wal"), nil)
	if err != nil || records != 0 || good != 0 {
		t.Fatalf("missing file: records=%d good=%d err=%v", records, good, err)
	}
}

// damage writes the WAL, applies f to its raw bytes, and returns how many
// records replay recovers plus whether reopening agrees.
func damageAndReplay(t *testing.T, recs []walRec, f func([]byte) []byte) int {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	appendRecs(t, path, recs).Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayRecs(t, path)
	for i := range got {
		if got[i].op != recs[i].op || got[i].key != recs[i].key || got[i].ver != recs[i].ver || !bytes.Equal(got[i].val, recs[i].val) {
			t.Fatalf("record %d corrupted by recovery: %+v vs %+v", i, got[i], recs[i])
		}
	}
	// OpenWAL must agree with replayWAL, truncate the bad tail, and accept
	// appends that then replay cleanly.
	n := 0
	w, err := OpenWAL(path, false, func(WALOp, uint64, uint64, []byte) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(got) {
		t.Fatalf("OpenWAL replayed %d records, replayWAL %d", n, len(got))
	}
	if err := w.Append(WALPut, 99999, 99999, []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	after := replayRecs(t, path)
	if len(after) != len(got)+1 || after[len(after)-1].key != 99999 {
		t.Fatalf("append after recovery replays %d records, want %d", len(after), len(got)+1)
	}
	return len(got)
}

func TestWALTornLastWrite(t *testing.T) {
	recs := sampleRecs(40, rand.New(rand.NewSource(3)))
	// Chop off the last few bytes: a write cut off mid-record.
	if got := damageAndReplay(t, recs, func(raw []byte) []byte {
		return raw[:len(raw)-3]
	}); got != 39 {
		t.Fatalf("torn last write: recovered %d records, want 39", got)
	}
}

func TestWALTruncatedHeader(t *testing.T) {
	recs := sampleRecs(40, rand.New(rand.NewSource(4)))
	// Leave only part of the final record's 8-byte header.
	var lastStart int
	path := filepath.Join(t.TempDir(), "probe.wal")
	appendRecs(t, path, recs[:39]).Close()
	if fi, err := os.Stat(path); err == nil {
		lastStart = int(fi.Size())
	} else {
		t.Fatal(err)
	}
	if got := damageAndReplay(t, recs, func(raw []byte) []byte {
		return raw[:lastStart+5]
	}); got != 39 {
		t.Fatalf("truncated header: recovered %d records, want 39", got)
	}
}

// walOffset is the length of the log recs[:n] makes: the offset of record
// n+1 in the whole log.
func walOffset(t *testing.T, recs []walRec, n int) int64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "probe.wal")
	appendRecs(t, path, recs[:n]).Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// damageRefused writes recs as a log, applies damage to its raw bytes and
// holds OpenWAL and replayWAL to refusing it with a DamageError at offset,
// the first intact frame at intact, the file left byte for byte as it was.
func damageRefused(t *testing.T, recs []walRec, damage func(raw []byte), offset, intact int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.wal")
	appendRecs(t, path, recs).Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage(raw)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(path, false, nil)
	if w != nil {
		w.Close()
	}
	var de *DamageError
	if !errors.As(err, &de) || de.Offset != offset || de.Intact != intact {
		t.Fatalf("open: err = %v, want a DamageError at byte %d with an intact frame at %d", err, offset, intact)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("open left the log at %d bytes (err %v), want the %d it had, byte for byte", len(after), err, len(raw))
	}
	if _, _, err := replayWAL(path, nil); !errors.As(err, &de) || de.Offset != offset {
		t.Fatalf("replay: err = %v, want a DamageError at byte %d", err, offset)
	}
}

// TestWALCorruptCRCStopsAtPrefix damages one frame of a 40-record log by
// flipping its first payload byte. In the middle of the log — record 21,
// intact frames behind it — that is no torn tail but corruption, and cutting
// the log there would lose 19 acknowledged records: the log is refused with
// a DamageError naming the damaged frame's offset and the next intact one's
// (damageRefused). The same damage to the last frame, with nothing intact
// behind it, is a torn tail: the log opens at the 39 records before it and
// is cut there.
func TestWALCorruptCRCStopsAtPrefix(t *testing.T) {
	recs := sampleRecs(40, rand.New(rand.NewSource(5)))
	cut := walOffset(t, recs, 20)
	damageRefused(t, recs, func(raw []byte) {
		raw[cut+walHeaderSize] ^= 0xFF // first payload byte of record 21
	}, cut, walOffset(t, recs, 21))

	last := walOffset(t, recs, 39)
	if got := damageAndReplay(t, recs, func(raw []byte) []byte {
		raw[last+walHeaderSize] ^= 0xFF // first payload byte of record 40
		return raw
	}); got != 39 {
		t.Fatalf("corrupt CRC on the last frame: recovered %d records, want 39", got)
	}
}

// TestWALCorruptLengthStopsAtPrefix gives a frame a length past
// walMaxRecord. On the first of ten frames the nine behind it are intact, so
// the log is refused at byte 0 (damageRefused); on the last it is a torn
// tail, cut after the nine before it.
func TestWALCorruptLengthStopsAtPrefix(t *testing.T) {
	recs := sampleRecs(10, rand.New(rand.NewSource(6)))
	damageRefused(t, recs, func(raw []byte) {
		binary.LittleEndian.PutUint32(raw[:4], walMaxRecord+1)
	}, 0, walOffset(t, recs, 1))

	last := walOffset(t, recs, 9)
	if got := damageAndReplay(t, recs, func(raw []byte) []byte {
		binary.LittleEndian.PutUint32(raw[last:], walMaxRecord+1)
		return raw
	}); got != 9 {
		t.Fatalf("corrupt length on the last frame: recovered %d records, want 9", got)
	}
}

// TestWALDamageScanIsLinear puts 8 MiB of bytes, half of them zero, behind
// a damaged first frame: every offset of it is a candidate frame, and many
// declare a length that fits. Judging the damage a torn tail must not
// checksum each candidate's claimed length — that is quadratic, minutes
// here — so it has to finish within a few seconds, race detector included.
func TestWALDamageScanIsLinear(t *testing.T) {
	rest := make([]byte, 8<<20)
	rng := rand.New(rand.NewSource(8))
	rng.Read(rest)
	for i := range rest {
		if rng.Intn(2) == 0 {
			rest[i] = 0
		}
	}
	raw := appendRecord(nil, WALPut, 1, 1, []byte("x"))
	raw[walHeaderSize] ^= 0xFF
	raw = append(raw, rest...)
	start := time.Now()
	if _, good, _, err := replayFrames(bytes.NewReader(raw), nil); err != nil || good != 0 {
		t.Fatalf("replay: good prefix %d, err %v; want a torn tail at 0", good, err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("judging the damage took %v", d)
	}
}

func TestWALGarbageTail(t *testing.T) {
	recs := sampleRecs(25, rand.New(rand.NewSource(7)))
	if got := damageAndReplay(t, recs, func(raw []byte) []byte {
		return append(raw, 0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03)
	}); got != 25 {
		t.Fatalf("garbage tail: recovered %d records, want 25", got)
	}
}

// TestWALUnknownOpIsAFormatError opens a log whose fourth frame passes its
// CRC but carries an op this build does not know, with two good records
// behind it. A crash cannot write such a frame, a newer format can: the open
// fails with ErrFormat and leaves all 76 bytes where they were, instead of
// replaying three records and cutting the file to 39 bytes, which loses keys
// 4 and 5.
func TestWALUnknownOpIsAFormatError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	var raw []byte
	for k := uint64(1); k <= 3; k++ {
		raw = appendRecord(raw, WALPut, k, k, []byte{byte(k)})
	}
	raw = appendRecord(raw, walMark+1, 0, 4, nil)
	for k := uint64(4); k <= 5; k++ {
		raw = appendRecord(raw, WALPut, k, k+1, []byte{byte(k)})
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(path, false, nil)
	if w != nil {
		w.Close()
	}
	if !errors.Is(err, ErrFormat) {
		t.Errorf("open: err = %v, want ErrFormat", err)
	}
	after, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(after, raw) {
		t.Errorf("open left the log at %d bytes, want the %d it had, byte for byte", len(after), len(raw))
	}
	if _, _, err := replayWAL(path, nil); !errors.Is(err, ErrFormat) {
		t.Errorf("replay: err = %v, want ErrFormat", err)
	}
}

// TestWALCompactReplacesLog compacts a log three times over: each time the
// file becomes a mark plus the records emitted, the stats follow it, the
// durable version holds — live and reopened — though no record carries it
// any more, appends land in the new file, and no temp file is left beside
// it.
func TestWALCompactReplacesLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	w := appendRecs(t, path, sampleRecs(10, rand.New(rand.NewSource(8))))
	for gen := uint64(1); gen <= 3; gen++ {
		if err := w.compact(func(emit func(op WALOp, key, ver uint64, val []byte)) {
			emit(WALPut, gen, gen, []byte{byte(gen)})
			emit(WALTomb, 50, 2, nil)
		}); err != nil {
			t.Fatal(err)
		}
		size := int64(len(appendRecord(appendRecord(appendRecord(nil, walMark, 0, 10, nil), WALPut, gen, gen, []byte{byte(gen)}), WALTomb, 50, 2, nil)))
		if b, r, v := w.Stats(); b != size || r != 2 || v != 10 {
			t.Fatalf("compaction %d: bytes=%d records=%d version=%d, want %d, 2 and 10", gen, b, r, v, size)
		}
	}
	re, err := OpenWAL(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, r, v := re.Stats(); r != 2 || v != 10 {
		t.Fatalf("reopened: records=%d version=%d, want 2 and 10", r, v)
	}
	re.Close()
	if err := w.Append(WALPut, 1, 301, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	want := []walRec{{WALPut, 3, 3, []byte{3}}, {WALTomb, 50, 2, nil}, {WALPut, 1, 301, []byte("x")}}
	if got := replayRecs(t, path); !recsEqual(got, want) {
		t.Fatalf("replay after compactions: %+v, want %+v", got, want)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("files beside the log: %v (%v)", ents, err)
	}
}

// TestWALResetAfterSnapshot compacts a log to no records — the snapshot of
// an empty shard: the file is the mark alone, and the next append is the
// only record a replay finds.
func TestWALResetAfterSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w := appendRecs(t, path, sampleRecs(10, rand.New(rand.NewSource(8))))
	if err := w.compact(func(func(op WALOp, key, ver uint64, val []byte)) {}); err != nil {
		t.Fatal(err)
	}
	mark := int64(len(appendRecord(nil, walMark, 0, 10, nil)))
	if b, r, _ := w.Stats(); b != mark || r != 0 {
		t.Fatalf("after an empty compaction: bytes=%d records=%d, want %d and 0", b, r, mark)
	}
	if err := w.Append(WALPut, 1, 100, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got := replayRecs(t, path)
	if len(got) != 1 || got[0].key != 1 {
		t.Fatalf("replay after reset: %+v", got)
	}
}

// TestSnapshotOverwriteIsAtomic rewrites the log over a temp file that an
// interrupted compaction left behind: each rewrite replaces the log whole,
// the latest image is the one a reopen replays, and no temp file is left.
func TestSnapshotOverwriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	w := appendRecs(t, path, nil)
	if err := os.WriteFile(path+".tmp", []byte("half a rewrite"), 0o644); err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= 3; gen++ {
		if err := w.compact(func(emit func(op WALOp, key, ver uint64, val []byte)) {
			emit(WALPut, gen, gen, []byte{byte(gen)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	want := []walRec{{WALPut, 3, 3, []byte{3}}}
	if got := replayRecs(t, path); !recsEqual(got, want) {
		t.Fatalf("latest image: %+v, want %+v", got, want)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("leftover temp files: %v", ents)
	}
}

// TestWALUnrepairableAppendClosesLog takes the file away under the log: the
// append fails, the file cannot be cut back to its good length either, and
// from then on the log is closed — every later append fails instead of
// being acked behind whatever the failed one left.
func TestWALUnrepairableAppendClosesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	recs := sampleRecs(3, rand.New(rand.NewSource(10)))
	w := appendRecs(t, path, recs)
	w.f.Close() // the descriptor goes bad behind the log's back
	for i := 0; i < 2; i++ {
		if err := w.Append(WALPut, 7, 7, []byte("x")); err == nil {
			t.Fatalf("append %d on a dead descriptor returned no error", i)
		}
	}
	if w.f != nil {
		t.Fatal("the log stayed open after an append it could not repair")
	}
	if b, r, v := w.Stats(); r != 3 || v != 3 || b == 0 {
		t.Fatalf("stats moved by failed appends: bytes=%d records=%d version=%d", b, r, v)
	}
	if got := replayRecs(t, path); !recsEqual(got, recs) {
		t.Fatalf("replay after the failure: %d records, want %d", len(got), len(recs))
	}
}

func TestWALAbandonKeepsWrittenRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	recs := sampleRecs(15, rand.New(rand.NewSource(9)))
	w := appendRecs(t, path, recs)
	w.Abandon()
	if err := w.Append(WALPut, 1, 1, nil); err == nil {
		t.Fatal("append after Abandon succeeded")
	}
	if got := replayRecs(t, path); !recsEqual(got, recs) {
		t.Fatalf("abandon lost records: %d vs %d", len(got), len(recs))
	}
}

// parentSnap is the parent format's snapshot committed under testdata:
// keys 0..9, value "snap<k>", all at version 0 under watermark 100, written
// by the parent's own writeSnapshot.
const parentSnap = "testdata/parent-format/shard.snap"

func TestSnapshotRoundTrip(t *testing.T) {
	var got []walRec
	ver, size, err := loadSnapshot(parentSnap, func(op WALOp, key, ver uint64, val []byte) {
		got = append(got, walRec{op, key, ver, append([]byte(nil), val...)})
	})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(parentSnap)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 100 || size != fi.Size() {
		t.Fatalf("loadSnapshot: ver=%d size=%d want 100/%d", ver, size, fi.Size())
	}
	var want []walRec
	for k := uint64(0); k < 10; k++ {
		want = append(want, walRec{WALPut, k, 0, []byte(fmt.Sprintf("snap%d", k))})
	}
	if !recsEqual(got, want) {
		t.Fatalf("snapshot records %+v, want %+v", got, want)
	}
}

func TestSnapshotMissingLoadsEmpty(t *testing.T) {
	ver, size, err := loadSnapshot(filepath.Join(t.TempDir(), "absent.snap"), nil)
	if err != nil || ver != 0 || size != 0 {
		t.Fatalf("missing snapshot: ver=%d size=%d err=%v", ver, size, err)
	}
}

func TestSnapshotCorruptionIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.snap")
	raw, err := os.ReadFile(parentSnap)
	if err != nil {
		t.Fatal(err)
	}
	// A truncated snapshot is corruption, not a crash artifact — the write
	// was atomic, so unlike the WAL it must refuse to load.
	if err := os.WriteFile(path, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSnapshot(path, nil); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
	// Not-a-snapshot magic.
	if err := os.WriteFile(path, []byte("not a snapshot at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSnapshot(path, nil); err == nil {
		t.Fatal("garbage file loaded as snapshot")
	}
}

// FuzzWALReplay feeds arbitrary bytes to the replay path: it must never
// panic, report no error but ErrFormat or a DamageError — one at the end of
// the good prefix, naming a frame behind it that lies within the input and
// whose CRC holds — and always return a good-prefix offset within the
// input.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	// A valid two-record log as a seed so mutations explore near-valid frames.
	valid := appendRecord(nil, WALPut, 42, 7, []byte("hello"))
	valid = appendRecord(valid, WALTomb, 43, 8, nil)
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	// The first frame damaged, the second intact behind it: refused.
	damaged := bytes.Clone(valid)
	damaged[walHeaderSize] ^= 0xFF
	f.Add(damaged)
	f.Fuzz(func(t *testing.T, raw []byte) {
		records, good, _, err := replayFrames(bytes.NewReader(raw), func(op WALOp, key, ver uint64, val []byte) {
			if op != WALPut && op != WALTomb && op != WALDrop {
				t.Fatalf("replay surfaced invalid op %d", op)
			}
		})
		var de *DamageError
		switch {
		case err == nil, errors.Is(err, ErrFormat):
		case errors.As(err, &de):
			at := de.Intact
			if de.Offset != good || at <= good || at+walHeaderSize > int64(len(raw)) {
				t.Fatalf("%v, with a good prefix of %d of %d bytes", err, good, len(raw))
			}
			if _, ferr := readFrame(bytes.NewReader(raw[at:]), nil); ferr != nil {
				t.Fatalf("%v, but the frame there reads: %v", err, ferr)
			}
		default:
			t.Fatalf("in-memory replay errored: %v", err)
		}
		if good < 0 || good > int64(len(raw)) {
			t.Fatalf("good prefix %d outside [0,%d]", good, len(raw))
		}
		if records < 0 {
			t.Fatalf("negative record count %d", records)
		}
	})
}

// FuzzWALRoundTrip appends a pseudo-random op sequence derived from the
// fuzz input, then verifies replay returns exactly that sequence — and
// that replay of every truncation of the file returns a prefix of it.
func FuzzWALRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3))
	f.Add(int64(99), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, cut uint8) {
		rng := rand.New(rand.NewSource(seed))
		recs := sampleRecs(int(n), rng)
		var buf []byte
		for _, r := range recs {
			buf = appendRecord(buf, r.op, r.key, r.ver, r.val)
		}
		var got []walRec
		records, good, _, err := replayFrames(bytes.NewReader(buf), func(op WALOp, key, ver uint64, val []byte) {
			got = append(got, walRec{op, key, ver, append([]byte(nil), val...)})
		})
		if err != nil {
			t.Fatal(err)
		}
		if int(records) != len(recs) || good != int64(len(buf)) || !recsEqual(got, recs) {
			t.Fatalf("round trip: %d/%d records, good %d/%d", records, len(recs), good, len(buf))
		}
		if len(buf) == 0 {
			return
		}
		// Any truncation must replay to a prefix: count records and check
		// each against the original sequence.
		trunc := buf[:int(cut)%len(buf)]
		i := 0
		_, _, _, err = replayFrames(bytes.NewReader(trunc), func(op WALOp, key, ver uint64, val []byte) {
			if i >= len(recs) {
				t.Fatal("truncated replay returned extra records")
			}
			r := recs[i]
			if op != r.op || key != r.key || ver != r.ver || !bytes.Equal(val, r.val) {
				t.Fatalf("truncated replay record %d differs", i)
			}
			i++
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestWALFrameLayout pins the on-disk framing so a refactor cannot silently
// break compatibility with existing logs.
func TestWALFrameLayout(t *testing.T) {
	buf := appendRecord(nil, WALPut, 300, 7, []byte("ab"))
	payload := buf[walHeaderSize:]
	if got := binary.LittleEndian.Uint32(buf[:4]); int(got) != len(payload) {
		t.Fatalf("length field %d, payload %d", got, len(payload))
	}
	if got := binary.LittleEndian.Uint32(buf[4:8]); got != crc32.Checksum(payload, walCRC) {
		t.Fatalf("CRC field mismatch")
	}
	want := []byte{byte(WALPut)}
	want = binary.AppendUvarint(want, 300)
	want = binary.AppendUvarint(want, 7)
	want = binary.AppendUvarint(want, 2)
	want = append(want, 'a', 'b')
	if !bytes.Equal(payload, want) {
		t.Fatalf("payload %x, want %x", payload, want)
	}
}

func TestDecodeRecordRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"bad op":       {9, 1, 1},
		"op zero":      {0, 1, 1},
		"mark trailer": {byte(walMark), 0, 1, 0},
		"torn key":     {byte(WALPut), 0x80},
		"torn version": append([]byte{byte(WALPut)}, 0x01, 0x80),
		"short value":  {byte(WALPut), 1, 1, 5, 'a'},
		"long value":   {byte(WALPut), 1, 1, 1, 'a', 'b'},
		"tomb trailer": {byte(WALTomb), 1, 1, 0},
	}
	for name, raw := range cases {
		if _, _, _, _, err := decodeRecord(raw); err == nil {
			t.Errorf("%s: decoded without error (%x)", name, raw)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	w, err := OpenWAL(filepath.Join(b.TempDir(), "b.wal"), false, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	val := bytes.Repeat([]byte("x"), 256)
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(WALPut, uint64(i), uint64(i+1), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALReplay(b *testing.B) {
	var buf []byte
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 1000; i++ {
		buf = appendRecord(buf, WALPut, uint64(i), uint64(i+1), val)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := replayFrames(bytes.NewReader(buf), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// replayWAL scans the log at path, invoking fn for each intact record in
// append order, and reports how many records were recovered and the byte
// offset of the good prefix. A torn tail ends the replay without error —
// that is the crash contract, not a failure; damage before an intact frame
// is a DamageError. A missing file replays as empty.
func replayWAL(path string, fn func(op WALOp, key, ver uint64, val []byte)) (records, goodBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("kvstore: open wal: %w", err)
	}
	defer f.Close()
	records, goodBytes, _, err = replayFrames(f, fn)
	return records, goodBytes, err
}
