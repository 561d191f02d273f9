package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
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
