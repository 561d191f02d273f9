// Package wire holds the varint primitives every binary codec in the
// repository is written in — the rpc envelopes, the multi-anchor subtask and
// partial streams, the pattern template, the embedding file — and the one
// reader that guards bytes arriving from outside the process.
//
// All integers are varints: unsigned values and ids as uvarints, signed
// counters zigzag-coded, so small values — the common case everywhere in the
// protocol — cost one byte.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendStr appends a length-prefixed string.
func AppendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendBool appends one byte, 1 or 0.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendF64 appends the 8 little-endian bytes of f's IEEE 754 bits.
func AppendF64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// Reader is the bounds-checked decode half: malformed input marks it failed,
// every later read returns a zero value, and Finish reports the failure (or
// trailing garbage) exactly once. Nothing it returns aliases the input
// except Raw.
type Reader struct {
	buf    []byte
	failed bool
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Fail marks the reader failed: a caller's own validity check joins the
// sticky error.
func (d *Reader) Fail() { d.failed = true }

// Failed reports whether any read so far was malformed.
func (d *Reader) Failed() bool { return d.failed }

// Len returns the bytes not yet consumed.
func (d *Reader) Len() int { return len(d.buf) }

// take consumes n bytes, or fails the reader when fewer are left.
func (d *Reader) take(n uint64) []byte {
	if d.failed || n > uint64(len(d.buf)) {
		d.failed = true
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// Uvarint reads an unsigned varint.
func (d *Reader) Uvarint() uint64 {
	if d.failed {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.failed = true
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zigzag-coded signed varint.
func (d *Reader) Varint() int64 {
	if d.failed {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.failed = true
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// U32 reads an unsigned varint that must fit 32 bits (node ids, small ints).
func (d *Reader) U32() uint64 {
	v := d.Uvarint()
	if v > math.MaxUint32 {
		d.failed = true
		return 0
	}
	return v
}

// U8 reads one byte.
func (d *Reader) U8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte; only 1 is true.
func (d *Reader) Bool() bool { return d.U8() == 1 }

// F32 reads 4 little-endian bytes as an IEEE 754 float.
func (d *Reader) F32() float32 {
	if b := d.take(4); b != nil {
		return math.Float32frombits(binary.LittleEndian.Uint32(b))
	}
	return 0
}

// F64 reads 8 little-endian bytes as an IEEE 754 float.
func (d *Reader) F64() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Str reads a length-prefixed string of at most max bytes, copying it out of
// the input.
func (d *Reader) Str(max int) string {
	n := d.Uvarint()
	if n > uint64(max) {
		d.failed = true
	}
	return string(d.take(n))
}

// Bytes reads a length-prefixed byte string into dst (reusing its capacity),
// so callers that recycle their envelopes skip the allocation. Zero length
// yields dst[:0] — no codec needs nil-vs-empty.
func (d *Reader) Bytes(dst []byte) []byte {
	b := d.take(d.Uvarint())
	if d.failed {
		return nil
	}
	return append(dst[:0], b...)
}

// Raw reads a length-prefixed sub-encoding WITHOUT copying: the returned
// slice aliases the input and must be fully consumed (e.g. by an
// UnmarshalBinary that retains nothing) before the input is reused.
func (d *Reader) Raw() []byte { return d.take(d.Uvarint()) }

// Count reads a collection length bounded by max AND by the bytes left (every
// element costs at least one byte), so a corrupt count cannot force a huge
// allocation.
func (d *Reader) Count(max int) int {
	v := d.Uvarint()
	if v > uint64(max) || v > uint64(len(d.buf)) {
		d.failed = true
		return 0
	}
	return int(v)
}

// Finish reports the decode's outcome: an error naming what was being decoded
// when any read failed or bytes are left over, nil otherwise.
func (d *Reader) Finish(what string) error {
	if d.failed {
		return fmt.Errorf("%s: malformed wire encoding", what)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%s: %d trailing bytes", what, len(d.buf))
	}
	return nil
}
