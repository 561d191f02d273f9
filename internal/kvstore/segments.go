package kvstore

import (
	"encoding/binary"
	"math/bits"
)

// segSize is the size of one log segment. A record longer than half of it
// gets a segment of its own, exactly its size, so a shared segment a record
// did not fit in is at least half full when the log moves on.
const segSize = 64 << 10

// segLog holds a shard's records in memory: append-only segments, one
// record after another, each [uvarint version][uvarint length + 1, or 0
// for a tombstone][value bytes]. A record is located by a ref, its
// segment's number in the high 32 bits and its byte offset in the low 32.
// Bytes once appended are never written again, and clean copies the live
// records into fresh segments rather than reusing old ones, so a value
// slice handed out of the log keeps its bytes for as long as its holder
// keeps it.
type segLog struct {
	segs [][]byte
	head int // the segment records of up to segSize/2 bytes are appended to
	// live counts the bytes of the records the index points at; dead the
	// bytes of records replaced or dropped since the last clean.
	live, dead int64
	// cleaned is set by every clean; a durable shard clears it once its
	// WAL has followed (Shard.compact).
	cleaned bool
}

// entry is one record decoded: the value (aliasing its segment), the write
// version and whether it is a tombstone. Versions are monotonic per writer
// (store-wide in a Store, per shard over TCP), so re-replication after a
// failure or revive always converges on the newest write; tombstones keep a
// deletion from being resurrected off a stale replica.
type entry struct {
	val  []byte
	ver  uint64
	dead bool
}

// uvarintLen is how many bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// append writes one record and returns its ref.
func (l *segLog) append(e entry) uint64 {
	n := uint64(len(e.val)) + 1
	if e.dead {
		n = 0
	}
	size := uvarintLen(e.ver) + uvarintLen(n) + len(e.val)
	seg := len(l.segs)
	switch {
	case size > segSize/2:
		l.segs = append(l.segs, make([]byte, 0, size))
	case seg == 0 || cap(l.segs[l.head])-len(l.segs[l.head]) < size:
		l.segs = append(l.segs, make([]byte, 0, segSize))
		l.head = seg
	default:
		seg = l.head
	}
	b := l.segs[seg]
	off := len(b)
	b = binary.AppendUvarint(b, e.ver)
	b = binary.AppendUvarint(b, n)
	l.segs[seg] = append(b, e.val...)
	l.live += int64(size)
	return uint64(seg)<<32 | uint64(off)
}

// read decodes the record at ref and returns it with its size in bytes.
// The value's capacity ends with it, so an append to it cannot reach the
// next record.
func (l *segLog) read(ref uint64) (entry, int64) {
	b := l.segs[ref>>32][uint32(ref):]
	ver, i := binary.Uvarint(b)
	n, j := binary.Uvarint(b[i:])
	start := i + j
	if n == 0 {
		return entry{ver: ver, dead: true}, int64(start)
	}
	end := start + int(n) - 1
	return entry{val: b[start:end:end], ver: ver}, int64(end)
}

// release marks size bytes of records dead — a record replaced, tombstoned
// over or dropped — and cleans the log once its dead bytes have reached its
// live ones and amount to a segment at least.
func (l *segLog) release(size int64, index map[uint64]uint64) {
	l.live -= size
	l.dead += size
	if l.dead >= l.live && l.dead >= segSize {
		l.clean(index)
	}
}

// clean copies the record every ref of index points at into fresh segments,
// rewriting the refs in place, and lets the old segments go — to the
// garbage collector once no value handed out of them is held any more.
func (l *segLog) clean(index map[uint64]uint64) {
	old := *l
	*l = segLog{cleaned: true}
	for k, ref := range index {
		e, _ := old.read(ref)
		index[k] = l.append(e)
	}
}
