package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// segSize is the size of one log segment. A record longer than half of it
// gets a segment of its own, exactly its size, so a shared segment a record
// did not fit in is at least half full when the log moves on.
const segSize = 64 << 10

// refSegs is how many segments a log can name. A ref is a uint32: the
// segment's number in its high 16 bits and the record's offset in the low
// 16, which a 64 KiB segment fills exactly (a record of its own segment
// starts at 0). An index slot holds ref+1, 0 meaning empty, so the last
// segment number is never used: a shard holds at most 65,535 segments —
// 4 GiB of small records, fewer bytes when records over half a segment
// take one each — and a write that needs one more fails with ErrShardFull.
const refSegs = 1<<16 - 1

// ErrShardFull is a write refused because the shard's log has no segment
// number left for it (refSegs).
var ErrShardFull = errors.New("kvstore: shard full")

// segLog holds a shard's records in memory: append-only segments, one
// record after another, each [uvarint key][uvarint version][uvarint length
// + 1, or 0 for a tombstone][value bytes], and an index over them. Bytes
// once appended are never written again, and clean copies the live records
// into fresh segments rather than reusing old ones, so a value slice handed
// out of the log keeps its bytes for as long as its holder keeps it.
//
// The index is an open-addressing table of refs, slots, probed linearly
// from a key's home slot, one slot per key holding the ref of its newest
// record plus one. The keys live in the records, so a probe compares the
// key a slot's record opens with; the table grows by doubling before it is
// three quarters full, and a removal shifts the probe run behind it back
// (no tombstone slots).
type segLog struct {
	segs  [][]byte
	head  int // the segment records of up to segSize/2 bytes are appended to
	slots []uint32
	keys  int  // occupied slots
	shift uint // 64 - log2(len(slots))
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

// append writes one record and returns its ref, or ErrShardFull when it
// needs a segment past the last one a ref can name.
func (l *segLog) append(key uint64, e entry) (uint32, error) {
	n := uint64(len(e.val)) + 1
	if e.dead {
		n = 0
	}
	size := uvarintLen(key) + uvarintLen(e.ver) + uvarintLen(n) + len(e.val)
	seg := len(l.segs)
	switch {
	case size <= segSize/2 && seg > 0 && cap(l.segs[l.head])-len(l.segs[l.head]) >= size:
		seg = l.head
	case seg >= refSegs:
		return 0, fmt.Errorf("%w: %d segments of %d KiB", ErrShardFull, seg, segSize>>10)
	case size > segSize/2:
		l.segs = append(l.segs, make([]byte, 0, size))
	default:
		l.segs = append(l.segs, make([]byte, 0, segSize))
		l.head = seg
	}
	b := l.segs[seg]
	off := len(b)
	b = binary.AppendUvarint(b, key)
	b = binary.AppendUvarint(b, e.ver)
	b = binary.AppendUvarint(b, n)
	l.segs[seg] = append(b, e.val...)
	l.live += int64(size)
	return uint32(seg)<<16 | uint32(off), nil
}

// record returns the bytes from ref to the end of its segment.
func (l *segLog) record(ref uint32) []byte { return l.segs[ref>>16][ref&0xFFFF:] }

// keyAt is the key of the record at ref.
func (l *segLog) keyAt(ref uint32) uint64 {
	key, _ := binary.Uvarint(l.record(ref))
	return key
}

// read decodes the record at ref and returns it with its size in bytes.
// The value's capacity ends with it, so an append to it cannot reach the
// next record.
func (l *segLog) read(ref uint32) (entry, int64) {
	_, e, size := decodeRecordAt(l.record(ref))
	return e, int64(size)
}

// decodeRecordAt decodes the record b opens with and returns its key, the
// record and its size.
func decodeRecordAt(b []byte) (uint64, entry, int) {
	key, i := binary.Uvarint(b)
	ver, j := binary.Uvarint(b[i:])
	i += j
	n, j := binary.Uvarint(b[i:])
	start := i + j
	if n == 0 {
		return key, entry{ver: ver, dead: true}, start
	}
	end := start + int(n) - 1
	return key, entry{val: b[start:end:end], ver: ver}, end
}

// home is key's first slot: a Fibonacci hash onto the table's bits.
func (l *segLog) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> l.shift)
}

// find returns the slot holding key and true, or false and the empty slot
// that ends key's probe run (-1 in a table not yet allocated).
func (l *segLog) find(key uint64) (int, bool) {
	if len(l.slots) == 0 {
		return -1, false
	}
	mask := len(l.slots) - 1
	i := l.home(key)
	for ; l.slots[i] != 0; i = (i + 1) & mask {
		if l.keyAt(l.slots[i]-1) == key {
			return i, true
		}
	}
	return i, false
}

// lookup decodes key's newest record, a tombstone included, and returns it
// with its slot and size.
func (l *segLog) lookup(key uint64) (slot int, e entry, size int64, ok bool) {
	slot, ok = l.find(key)
	if ok {
		e, size = l.read(l.slots[slot] - 1)
	}
	return slot, e, size, ok
}

// set points key's slot at ref: slot and found as find returned them for
// key, nothing written to the table since. A new key takes the empty slot,
// growing the table first when it would pass three quarters full.
func (l *segLog) set(slot int, found bool, key uint64, ref uint32) {
	if !found {
		if 4*(l.keys+1) > 3*len(l.slots) {
			l.grow()
			slot, _ = l.find(key)
		}
		l.keys++
	}
	l.slots[slot] = ref + 1
}

// grow doubles the table (to 16 slots from none) and re-homes every key.
func (l *segLog) grow() {
	old := l.slots
	n := max(16, 2*len(old))
	l.slots, l.shift = make([]uint32, n), uint(64-bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := l.home(l.keyAt(s - 1))
		for l.slots[i] != 0 {
			i = (i + 1) & mask
		}
		l.slots[i] = s
	}
}

// remove empties slot i and moves back every slot of the probe run behind
// it whose home does not lie between i and itself, so no probe run breaks.
func (l *segLog) remove(i int) {
	mask := len(l.slots) - 1
	for j := (i + 1) & mask; l.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home is
		// cyclically in (i, j].
		if h := l.home(l.keyAt(l.slots[j] - 1)); (j-h)&mask >= (j-i)&mask {
			l.slots[i] = l.slots[j]
			i = j
		}
	}
	l.slots[i] = 0
	l.keys--
}

// each calls fn with every key's newest record, tombstones included, in no
// particular order.
func (l *segLog) each(fn func(key uint64, e entry)) {
	for _, s := range l.slots {
		if s != 0 {
			key, e, _ := decodeRecordAt(l.record(s - 1))
			fn(key, e)
		}
	}
}

// release marks size bytes of records dead — a record replaced, tombstoned
// over or dropped — and cleans the log once its dead bytes have reached its
// live ones and amount to a segment at least.
func (l *segLog) release(size int64) {
	l.live -= size
	l.dead += size
	if l.dead >= l.live && l.dead >= segSize {
		l.clean()
	}
}

// clean copies the live records, in log order, into fresh segments and a
// fresh table with every key in the slot it had, and lets the old segments
// go — to the garbage collector once no value handed out of them is held
// any more. In log order the small records are packed as they were, less
// the dead ones, so the cleaned log never needs more segments than the old
// one had and cannot meet refSegs.
func (l *segLog) clean() {
	old := *l
	*l = segLog{slots: make([]uint32, len(old.slots)), keys: old.keys, shift: old.shift, cleaned: true}
	mask := len(l.slots) - 1
	for s, b := range old.segs {
		for off := 0; off < len(b); {
			at := uint32(s)<<16 | uint32(off)
			key, e, size := decodeRecordAt(b[off:])
			off += size
			i := l.home(key)
			for old.slots[i] != 0 && old.slots[i] != at+1 {
				i = (i + 1) & mask
			}
			if old.slots[i] == 0 {
				continue // replaced or dropped
			}
			ref, _ := l.append(key, e)
			l.slots[i] = ref + 1
		}
	}
}
