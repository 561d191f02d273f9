package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Binary framing. Every protocol message travels as one frame:
//
//	[4-byte little-endian payload length][payload]
//
// The payload is a varint-coded stream built in a single pooled []byte slab
// (the length prefix is reserved up front and patched in before the write),
// so a steady-state call encodes with zero heap allocations. Request and
// response payloads both lead with the pipelining tag:
//
//	request:  tag uvarint | op u8 | deadline uvarint | field bitmap | fields
//	response: tag uvarint | status u8 [| errmsg] | field bitmap | fields
//
// Fields are presence-encoded: the bitmap says which envelope fields follow
// (in bit order), and an absent field decodes as its zero value — so a ping
// costs a handful of bytes, not the full union, exactly the property the
// gob envelopes had, without gob's type descriptors.
const (
	// maxFrame bounds a frame payload; a corrupt length prefix fails fast
	// instead of forcing a giant allocation.
	maxFrame = 64 << 20
	// frameHeader is the length prefix size.
	frameHeader = 4
	// frameWindow is the read buffer each connection end holds: one read(2)
	// takes in at most this much, and a frame that does not fit in it gets
	// a buffer of its own.
	frameWindow = 32 << 10
	// maxWireStr bounds decoded envelope strings (addresses, labels, error
	// messages, stats roles).
	maxWireStr = 1 << 16
)

var errFrameTooBig = errors.New("rpc: frame exceeds size limit")

// slabPool recycles frame buffers across calls and connections — the
// "one []byte slab per frame" the zero-alloc encode path is built on (and
// what the buffered read path copies each received frame into).
var slabPool = sync.Pool{New: func() any { s := make([]byte, 0, 1024); return &s }}

func getSlab() *[]byte { return slabPool.Get().(*[]byte) }

func putSlab(s *[]byte) {
	if cap(*s) > maxFrame/4 {
		return // don't let one giant frame pin memory in the pool
	}
	*s = (*s)[:0]
	slabPool.Put(s)
}

// beginFrame reserves the length prefix at the head of buf.
func beginFrame(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0)
}

// finishFrame patches the length prefix once the payload is complete.
func finishFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[:frameHeader], uint32(len(buf)-frameHeader))
	return buf
}

// readFrame reads one frame payload into a pooled slab. The caller owns the
// returned slab and must release it with putSlab(&payload) when done.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, errFrameTooBig
	}
	s := getSlab()
	buf := *s
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	*s = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		putSlab(s)
		return nil, err
	}
	return buf, nil
}

// releaseFrame returns a payload obtained from readFrame to the slab pool.
func releaseFrame(payload []byte) {
	putSlab(&payload)
}

// readFramesBuffered is the portable frame-delivery loop behind readFrames:
// readFrame over a bufio.Reader, one pooled slab per frame. It costs a
// second read(2) per idle wake-up (net.Conn.Read always tries the socket
// before it parks), which is why unix TCP conns do not take it.
func readFramesBuffered(r io.Reader, onFrame func(payload []byte) bool) error {
	br := bufio.NewReaderSize(r, frameWindow)
	for {
		payload, err := readFrame(br)
		if err != nil {
			return err
		}
		more := onFrame(payload)
		releaseFrame(payload)
		if !more {
			return nil
		}
	}
}

// Append helpers (the encode half of the codec). All integers are varints:
// unsigned values and IDs as uvarints, signed counters zigzag-coded, so
// small values — the common case everywhere in the protocol — cost one byte.

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendF64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// wireReader is the bounds-checked decode half: malformed input flips err,
// every later read returns a zero value, and finish reports the failure (or
// trailing garbage) exactly once. The same idiom as internal/mquery's
// wireDec, extended with the primitive set the envelope codec needs.
type wireReader struct {
	buf []byte
	err bool
}

func (d *wireReader) fail() { d.err = true }

func (d *wireReader) uvarint() uint64 {
	if d.err {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = true
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *wireReader) varint() int64 {
	if d.err {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = true
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *wireReader) u8() byte {
	if d.err || len(d.buf) == 0 {
		d.err = true
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *wireReader) bool() bool { return d.u8() == 1 }

func (d *wireReader) f64() float64 {
	if d.err || len(d.buf) < 8 {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return math.Float64frombits(v)
}

// str decodes a length-prefixed string, copying out of the frame (the
// reader reuses the bytes under it once decode returns, so nothing may
// alias them).
func (d *wireReader) str() string {
	n := d.uvarint()
	if d.err || n > maxWireStr || n > uint64(len(d.buf)) {
		d.err = true
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// bytes decodes a length-prefixed byte string into dst (reusing its
// capacity), so callers that recycle their envelopes skip the allocation.
// A nil wire value stays distinguishable: zero length yields dst[:0] — the
// protocol never needs nil-vs-empty.
func (d *wireReader) bytes(dst []byte) []byte {
	n := d.uvarint()
	if d.err || n > uint64(len(d.buf)) {
		d.err = true
		return nil
	}
	dst = append(dst[:0], d.buf[:n]...)
	d.buf = d.buf[n:]
	return dst
}

// raw decodes a length-prefixed sub-encoding WITHOUT copying: the returned
// slice aliases the frame and must be fully consumed (e.g. by an
// UnmarshalBinary that retains nothing) before decode returns.
func (d *wireReader) raw() []byte {
	n := d.uvarint()
	if d.err || n > uint64(len(d.buf)) {
		d.err = true
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// count decodes a collection length bounded by max AND by the bytes left
// (every element costs at least one byte), so a corrupt count cannot force
// a huge allocation.
func (d *wireReader) count(max int) int {
	v := d.uvarint()
	if v > uint64(max) || v > uint64(len(d.buf)) {
		d.err = true
		return 0
	}
	return int(v)
}

func (d *wireReader) finish(what string) error {
	if d.err {
		return fmt.Errorf("rpc: %s: malformed wire encoding", what)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("rpc: %s: %d trailing bytes", what, len(d.buf))
	}
	return nil
}
