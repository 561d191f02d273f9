package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Snapshot files compact a shard's WAL: the full shard image at one
// version watermark, after which the log restarts empty. The file reuses
// the WAL's CRC frame: frame 0 is a header (magic + uvarint version
// watermark), every following frame is one record in WAL payload
// encoding. Snapshots are written to a temp file and renamed into place,
// so a crash mid-snapshot leaves the previous snapshot (or none) intact —
// a snapshot is either whole or absent, never torn.
var snapMagic = []byte("grsnap1\n")

// writeSnapshot atomically writes a snapshot at path. iter must call emit
// once per record; version is the shard's durable-version watermark.
// Returns the file's size.
func writeSnapshot(path string, version uint64, iter func(emit func(op WALOp, key, ver uint64, val []byte))) (int64, error) {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("kvstore: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	bw := bufio.NewWriterSize(tmp, 1<<16)
	bp := walBufPool.Get().(*[]byte)
	defer func() { walBufPool.Put(bp) }()

	var hdrArr [32]byte
	hdr := append(hdrArr[:0], snapMagic...)
	hdr = binary.AppendUvarint(hdr, version)
	*bp = writeFrame(bw, (*bp)[:0], hdr)

	var werr error
	var total int64
	iter(func(op WALOp, key, ver uint64, val []byte) {
		if werr != nil {
			return
		}
		buf := appendRecord((*bp)[:0], op, key, ver, val)
		total += int64(len(buf))
		if _, err := bw.Write(buf); err != nil {
			werr = err
		}
		*bp = buf[:0]
	})
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return 0, fmt.Errorf("kvstore: snapshot write: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("kvstore: snapshot rename: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("kvstore: snapshot stat: %w", err)
	}
	return fi.Size(), nil
}

// writeFrame frames payload (header + CRC) into buf and writes it,
// returning buf for reuse. Errors surface on the writer's next Flush.
func writeFrame(w io.Writer, buf, payload []byte) []byte {
	buf = buf[:0]
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, walCRC))
	w.Write(buf)
	return buf[:0]
}

// loadSnapshot reads the snapshot at path, invoking fn per record. It
// returns the version watermark and the file size. A missing file loads
// as empty (version 0); a damaged file — unlike a torn WAL tail — is an
// error, because snapshots are written atomically and can only be damaged
// by real corruption.
func loadSnapshot(path string, fn func(op WALOp, key, ver uint64, val []byte)) (version uint64, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("kvstore: open snapshot: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)

	hdr, err := readFrame(br, nil)
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

	records, good, _, err := replayFrames(br, fn)
	if err != nil {
		return 0, 0, err
	}
	// replayFrames tolerates a torn or garbage tail; for a snapshot that
	// means corruption, so every byte of the file must belong to a good
	// frame.
	fi, serr := f.Stat()
	if serr != nil {
		return 0, 0, fmt.Errorf("kvstore: snapshot stat: %w", serr)
	}
	if int64(walHeaderSize+len(hdr))+good != fi.Size() {
		return 0, 0, fmt.Errorf("kvstore: snapshot %s: corrupt after %d records", path, records)
	}
	return version, fi.Size(), nil
}

// readFrame reads one CRC frame into buf (grown as needed) and returns
// the payload.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > walMaxRecord {
		return nil, fmt.Errorf("bad frame length %d", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if crc32.Checksum(buf, walCRC) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("frame CRC mismatch")
	}
	return buf, nil
}
