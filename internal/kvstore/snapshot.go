package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
)

// A shard.snap beside a WAL is the parent format's compaction, which nothing
// writes any more: the shard image at a version watermark, after which the
// log restarted. It reuses the WAL's CRC frame: a header frame (magic +
// uvarint watermark), then one frame per record. Shard.open replays it under
// its log, compacts the log and unlinks it.
var snapMagic = []byte("grsnap1\n")

// parentFormat reports whether the snapshot at snap must be replayed under
// the log at wal: it exists, and the log does not open with the mark a
// compaction writes — a snapshot beside a compacted log is stale.
func parentFormat(wal, snap string) bool {
	if _, err := os.Stat(snap); os.IsNotExist(err) {
		return false
	}
	f, err := os.Open(wal)
	if err != nil {
		return true
	}
	defer f.Close()
	frame, err := readFrame(f, nil)
	return err != nil || WALOp(frame[0]) != walMark
}

// loadSnapshot reads the snapshot at path, invoking fn per record. It
// returns the version watermark and the file size. A missing file loads
// as empty (version 0); a damaged file — unlike a torn WAL tail — is an
// error, because snapshots are written atomically and can only be damaged
// by real corruption.
func loadSnapshot(path string, fn func(op WALOp, key, ver uint64, val []byte)) (version uint64, size int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("kvstore: open snapshot: %w", err)
	}
	hdr, err := readFrame(bytes.NewReader(raw), nil)
	if err != nil {
		return 0, 0, fmt.Errorf("kvstore: snapshot header: %w", err)
	}
	if !bytes.HasPrefix(hdr, snapMagic) {
		return 0, 0, fmt.Errorf("kvstore: %s is not a snapshot", path)
	}
	version, n := binary.Uvarint(hdr[len(snapMagic):])
	if n <= 0 {
		return 0, 0, fmt.Errorf("kvstore: snapshot %s: bad version watermark", path)
	}

	body := raw[walHeaderSize+len(hdr):]
	records, good, _, err := replayFrames(bytes.NewReader(body), fn)
	if err != nil {
		return 0, 0, err
	}
	// replayFrames tolerates a torn or garbage tail; for a snapshot that
	// means corruption, so every byte of the file must belong to a good
	// frame.
	if good != int64(len(body)) {
		return 0, 0, fmt.Errorf("kvstore: snapshot %s: corrupt after %d records", path, records)
	}
	return version, int64(len(raw)), nil
}
