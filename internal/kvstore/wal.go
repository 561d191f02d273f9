package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// WALOp tags one write-ahead-log record.
type WALOp byte

// WAL record kinds. Every mutation a shard accepts is one record: a live
// value, a deletion tombstone (which must survive restarts so a stale
// replica cannot resurrect the key during repair), or a hard drop (garbage
// collection of a copy that left the shard's placement set).
const (
	// WALPut installs a live value.
	WALPut WALOp = 1
	// WALTomb installs a deletion tombstone.
	WALTomb WALOp = 2
	// WALDrop removes the key entirely.
	WALDrop WALOp = 3
	// walMark opens a compacted log: it carries the durable-version
	// watermark in its version field (key 0, no value) and installs nothing,
	// so the watermark survives the compaction dropping its key.
	walMark WALOp = 4
)

// WAL framing: every record is [4B little-endian payload length]
// [4B little-endian CRC-32C of the payload][payload]. The payload is
// [1B op][uvarint key][uvarint version][uvarint value length][value]
// (the value run is present only for WALPut). Replay accepts the longest
// prefix of intact frames when what follows it is a torn tail: a partial
// header, a short payload, a bad length or a CRC mismatch from a write cut
// off mid-record, with no intact frame — one whose CRC holds over a record
// this build reads — starting anywhere behind it. That is exactly the state a crash during an append
// leaves behind, and the log ends there. Damage with an intact frame behind
// it is no tail: a crash cannot leave it (appends only ever extend the
// file, and a failed one is cut back), so it is corruption, and cutting
// there would lose every acknowledged record behind it — replay refuses the
// log (DamageError). So does a frame whose CRC holds but whose op is
// unknown: a newer format wrote it (ErrFormat).
//
// The one torn tail this refuses is a machine crash with appends not
// fsynced that lost an earlier page of the last write and kept a later one,
// leaving intact frames behind a hole: the log cannot tell that from
// corruption in the middle, and refusing is the side that loses nothing.
const walHeaderSize = 8

// walMaxRecord bounds a single record so a corrupt length field cannot
// drive replay into a giant allocation.
const walMaxRecord = 64 << 20

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walBufPool recycles append/replay scratch buffers, the same
// single-allocation discipline the gstore codec uses on the fetch path.
var walBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// WAL is one shard's append-only write-ahead log and its only durable
// format. Appends are written to the OS with a single write syscall per
// record or group of records, so a killed *process* never loses an
// acknowledged write; Fsync extends that to machine crashes. compact
// replaces the file with its live records. Safe for concurrent use.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	fsync   bool
	bytes   int64 // durable log length (good frames only)
	records int64
	durVer  uint64 // highest version ever appended or replayed
}

// OpenWAL opens (creating if absent) the log at path, replays every intact
// record through apply in append order, truncates any torn tail, and
// returns the log positioned for appending. A log holding a frame of a
// format this build does not know fails with ErrFormat, one damaged before
// an intact frame with a DamageError, and either file is left as it was
// (apply has seen the records before the frame). apply may be nil when the
// caller only wants the log open (fresh shard). A compaction's temp file
// left by a crash before its rename is removed.
func OpenWAL(path string, fsync bool, apply func(op WALOp, key, ver uint64, val []byte)) (*WAL, error) {
	os.Remove(path + ".tmp")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	w := &WAL{f: f, path: path, fsync: fsync}
	records, good, maxVer, err := replayFrames(f, func(op WALOp, key, ver uint64, val []byte) {
		if apply != nil {
			apply(op, key, ver, val)
		}
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	// Truncate the torn tail (if any) so new appends start at the last
	// good frame instead of interleaving with garbage.
	if fi, serr := f.Stat(); serr == nil && fi.Size() > good {
		if terr := f.Truncate(good); terr != nil {
			f.Close()
			return nil, fmt.Errorf("kvstore: truncate wal tail: %w", terr)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: seek wal: %w", err)
	}
	w.bytes, w.records, w.durVer = good, records, maxVer
	return w, nil
}

// appendRecord encodes one record into buf (reused across calls).
func appendRecord(buf []byte, op WALOp, key, ver uint64, val []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	buf = append(buf, byte(op))
	buf = binary.AppendUvarint(buf, key)
	buf = binary.AppendUvarint(buf, ver)
	if op == WALPut {
		buf = binary.AppendUvarint(buf, uint64(len(val)))
		buf = append(buf, val...)
	}
	payload := buf[start+walHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, walCRC))
	return buf
}

// Append writes one record and flushes it to the OS (plus fsync when the
// log was opened with it). The record is durable against process death
// when Append returns.
func (w *WAL) Append(op WALOp, key, ver uint64, val []byte) error {
	bp := walBufPool.Get().(*[]byte)
	frame := appendRecord((*bp)[:0], op, key, ver, val)
	err := w.appendFrames(frame, 1, ver)
	*bp = frame[:0]
	walBufPool.Put(bp)
	return err
}

// appendFrames is the log's one append path: frames holds n records as
// appendRecord laid them out, back to back, the highest version among them
// maxVer, and the whole group goes to the OS in a single write. A group is
// nothing on disk but its records — a crash mid-write replays to a record
// prefix like any torn tail. Nothing of a failed append stays in the file
// (see repair), so an error means none of the group is logged.
func (w *WAL) appendFrames(frames []byte, n int, maxVer uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("kvstore: wal %s is closed", w.path)
	}
	if _, err := w.f.Write(frames); err != nil {
		return w.repair(fmt.Errorf("kvstore: wal append: %w", err))
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			return w.repair(fmt.Errorf("kvstore: wal fsync: %w", err))
		}
	}
	w.bytes += int64(len(frames))
	w.records += int64(n)
	if maxVer > w.durVer {
		w.durVer = maxVer
	}
	return nil
}

// repair cuts the file back to its last good length after a failed append
// and returns cause. A short write leaves a torn frame behind and the offset
// past it; the next append would succeed, be acked, and sit where replay —
// which stops at the first damaged frame — never reaches it. When the file
// cannot be cut back either, the log closes: every later append then fails
// unacked instead of acking into the void. Caller holds w.mu.
func (w *WAL) repair(cause error) error {
	err := w.f.Truncate(w.bytes)
	if err == nil {
		_, err = w.f.Seek(w.bytes, io.SeekStart)
	}
	if err != nil {
		w.f.Close()
		w.f = nil
		return fmt.Errorf("%w (log closed: %v)", cause, err)
	}
	return cause
}

// Sync flushes the log to stable storage (fsync), regardless of the
// per-append setting — the graceful-shutdown path.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.f.Sync()
}

// compaction is the log rewritten to its temp file, path + ".tmp", and
// fsynced, on its way to replacing it. One compaction runs at a time, so the
// name is fixed: a crash's leftover is truncated by the next one.
type compaction struct {
	f              *os.File
	bytes, records int64
}

// compact replaces the log with a mark carrying its durable-version
// watermark and the records each emits: rewrite, rename over the log, adopt
// the new file's descriptor and — when appends fsync — fsync the directory,
// so a machine crash cannot keep the new file's data and lose its name. A
// crash before the rename leaves the old log (and a temp file OpenWAL
// removes), one after it the new. The caller keeps appends out until compact
// returns.
func (w *WAL) compact(each func(emit func(op WALOp, key, ver uint64, val []byte))) error {
	c, err := w.rewrite(each)
	if err != nil {
		return err
	}
	if err := os.Rename(c.f.Name(), w.path); err != nil {
		c.f.Close()
		os.Remove(c.f.Name())
		return fmt.Errorf("kvstore: compaction rename: %w", err)
	}
	w.adopt(c)
	if w.fsync {
		return syncDir(filepath.Dir(w.path))
	}
	return nil
}

// rewrite writes the mark and the records each emits to the temp file and
// fsyncs it.
func (w *WAL) rewrite(each func(emit func(op WALOp, key, ver uint64, val []byte))) (*compaction, error) {
	f, err := os.OpenFile(w.path+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: compaction temp: %w", err)
	}
	c := &compaction{f: f, records: -1} // the mark is no record
	bw := bufio.NewWriterSize(f, 1<<16)
	bp := walBufPool.Get().(*[]byte)
	emit := func(op WALOp, key, ver uint64, val []byte) {
		*bp = appendRecord((*bp)[:0], op, key, ver, val)
		bw.Write(*bp) // a failed write sticks, and Flush reports it
		c.bytes += int64(len(*bp))
		c.records++
	}
	_, _, durVer := w.Stats()
	emit(walMark, 0, durVer, nil)
	each(emit)
	walBufPool.Put(bp)
	if err = bw.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("kvstore: compaction write: %w", err)
	}
	return c, nil
}

// adopt makes the renamed file the log, its descriptor at its end.
func (w *WAL) adopt(c *compaction) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f.Close()
	w.f, w.bytes, w.records = c.f, c.bytes, c.records
}

// syncDir fsyncs directory dir, making a rename in it durable. Windows
// cannot fsync a directory; NTFS journals the rename itself.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil && runtime.GOOS != "windows" {
		return fmt.Errorf("kvstore: fsync dir: %w", err)
	}
	return nil
}

// Close fsyncs and closes the log (the clean-shutdown path).
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Abandon closes the file descriptor without syncing — the kill -9 path:
// whatever Append already pushed to the OS survives, nothing else is
// promised.
func (w *WAL) Abandon() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// Stats returns the log's durable length in bytes, its record count, and
// the highest version it has made durable.
func (w *WAL) Stats() (bytes, records int64, durableVersion uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes, w.records, w.durVer
}

// replayFrames reads frames from r, which starts at the log's first byte,
// until EOF or the first damaged frame, returning the record count, the
// byte offset after the last good frame, and the highest version seen, a
// mark's included. A mark is not a record: fn never sees it. An I/O error
// is an error, and so is a CRC-valid frame with an unknown op (ErrFormat):
// that frame is a newer format's, not damage, so nothing behind it may be
// cut. A damaged frame — torn, CRC-failing, or CRC-valid but malformed —
// ends the good prefix when no intact frame starts behind it, and is a
// DamageError when one does.
func replayFrames(r io.ReadSeeker, fn func(op WALOp, key, ver uint64, val []byte)) (records, good int64, maxVer uint64, err error) {
	bp := walBufPool.Get().(*[]byte)
	defer func() { walBufPool.Put(bp) }()
	for {
		var buf []byte
		if buf, err = readFrame(r, *bp); err == io.EOF {
			return records, good, maxVer, nil
		}
		if err != nil && err != errTorn {
			return records, good, maxVer, fmt.Errorf("kvstore: wal read: %w", err)
		}
		var op WALOp
		var key, ver uint64
		var val []byte
		if err == nil {
			*bp = buf
			op, key, ver, val, err = decodeRecord(buf)
		}
		if errors.Is(err, ErrFormat) {
			return records, good, maxVer, fmt.Errorf("%w: frame at byte %d", err, good)
		}
		if err != nil { // torn, CRC-failing or malformed
			return records, good, maxVer, damaged(r, good)
		}
		good += int64(walHeaderSize + len(buf))
		maxVer = max(maxVer, ver)
		if op == walMark {
			continue
		}
		records++
		if fn != nil {
			fn(op, key, ver, val)
		}
	}
}

// damaged judges the damaged frame at offset at: nil when it starts a torn
// tail — no intact frame starts anywhere behind it — and a DamageError
// naming the first one otherwise. Every byte offset is tried, since a
// damaged frame's length cannot be trusted to say where the next one
// starts. An intact frame is one whose length fits, whose payload decodes
// as a record this build reads, and whose CRC holds; the decode is tried
// first, so the CRC runs over almost no candidate that is not a frame and
// the scan stays linear in the bytes behind the good prefix, which it
// reads once per open.
func damaged(r io.ReadSeeker, at int64) error {
	if _, err := r.Seek(at+1, io.SeekStart); err != nil {
		return fmt.Errorf("kvstore: wal seek: %w", err)
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("kvstore: wal read: %w", err)
	}
	for i := 0; i+walHeaderSize < len(rest); i++ {
		n := int(binary.LittleEndian.Uint32(rest[i:]))
		end := i + walHeaderSize + n
		if n == 0 || n > walMaxRecord || end > len(rest) {
			continue
		}
		payload := rest[i+walHeaderSize : end]
		if op := WALOp(payload[0]); op < WALPut || op > walMark {
			continue
		}
		if _, _, _, _, err := decodeRecord(payload); err != nil {
			continue
		}
		if crc32.Checksum(payload, walCRC) == binary.LittleEndian.Uint32(rest[i+4:]) {
			return &DamageError{Offset: at, Intact: at + 1 + int64(i)}
		}
	}
	return nil
}

// DamageError is a log refused because a frame in it is damaged and an
// intact frame starts behind it: corruption, not a torn tail, so cutting
// the log at the damage would lose the records behind it.
type DamageError struct {
	Offset int64 // where the damaged frame starts
	Intact int64 // where the first intact frame behind it starts
}

func (e *DamageError) Error() string {
	return fmt.Sprintf("kvstore: wal damaged at byte %d, an intact frame at byte %d behind it", e.Offset, e.Intact)
}

// errTorn is readFrame's report of a frame cut short or damaged.
var errTorn = errors.New("kvstore: torn or damaged frame")

// ErrFormat marks a log this build cannot read: a frame whose CRC holds but
// whose op is unknown was written by a newer format.
var ErrFormat = errors.New("kvstore: wal format unknown to this build")

// readFrame reads one CRC frame into buf (grown as needed) and returns its
// payload. A clean end is io.EOF; a partial header or payload, a bad length
// or a CRC mismatch is errTorn; any other error is the read's.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, errTorn
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > walMaxRecord {
		return nil, errTorn
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, errTorn
		}
		return nil, err
	}
	if crc32.Checksum(buf, walCRC) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, errTorn
	}
	return buf, nil
}

// decodeRecord parses one CRC-validated payload. The returned val aliases
// buf — callers copy what they keep.
func decodeRecord(buf []byte) (op WALOp, key, ver uint64, val []byte, err error) {
	if len(buf) < 1 {
		return 0, 0, 0, nil, fmt.Errorf("kvstore: empty wal record")
	}
	op = WALOp(buf[0])
	if op < WALPut || op > walMark {
		return 0, 0, 0, nil, fmt.Errorf("%w: op %d", ErrFormat, op)
	}
	buf = buf[1:]
	key, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, 0, nil, fmt.Errorf("kvstore: bad wal key")
	}
	buf = buf[n:]
	ver, n = binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, 0, nil, fmt.Errorf("kvstore: bad wal version")
	}
	buf = buf[n:]
	if op == WALPut {
		vlen, n := binary.Uvarint(buf)
		if n <= 0 || vlen != uint64(len(buf)-n) {
			return 0, 0, 0, nil, fmt.Errorf("kvstore: bad wal value length")
		}
		val = buf[n:]
	} else if len(buf) != 0 {
		return 0, 0, 0, nil, fmt.Errorf("kvstore: %d trailing wal bytes", len(buf))
	}
	return op, key, ver, val, nil
}
