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
//	[uvarint payload length][payload]
//
// The payload is a varint-coded stream built in a single pooled []byte slab
// (room for the longest length is reserved up front, and the payload moves
// down behind the length's real size before the write), so a steady-state
// call encodes with zero heap allocations. Request and response payloads
// both lead with the pipelining tag:
//
//	request:  tag uvarint | op u8 | deadline uvarint | field bitmap | fields
//	response: tag uvarint | status u8 [| errmsg] | field bitmap | fields
//
// Fields are presence-encoded: the bitmap says which envelope fields follow
// (in bit order), and an absent field decodes as its zero value — so a ping
// costs a handful of bytes, not the full union, exactly the property the
// gob envelopes had, without gob's type descriptors. A query and a result
// inside an OpExecute frame are presence-coded the same way (codec.go).
const (
	// maxFrame bounds a frame payload; a corrupt length prefix fails fast
	// instead of forcing a giant allocation.
	maxFrame = 64 << 20
	// frameHeader is the longest length prefix: four uvarint bytes reach
	// 2^28-1, past maxFrame. A prefix that runs longer is errFrameTooBig,
	// like a length above maxFrame.
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

// beginFrame reserves room for the longest length prefix at the head of buf.
func beginFrame(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0)
}

// finishFrame writes the length prefix once the payload is complete and
// moves the payload down to sit right behind it. A payload too long for
// four prefix bytes gets the first four, which its reader refuses.
func finishFrame(buf []byte) []byte {
	n := len(buf) - frameHeader
	var hdr [binary.MaxVarintLen64]byte
	k := copy(buf[:frameHeader], binary.AppendUvarint(hdr[:0], uint64(n)))
	copy(buf[k:], buf[frameHeader:])
	return buf[:k+n]
}

// frameLen reads the length prefix at the head of b: the payload length n
// and the prefix's own size k, or k == 0 while b holds only part of the
// prefix. A prefix longer than frameHeader bytes or a length above maxFrame
// is errFrameTooBig.
func frameLen(b []byte) (n, k int, err error) {
	var x uint64
	for i := 0; i < len(b) && i < frameHeader; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			if x > maxFrame {
				return 0, 0, errFrameTooBig
			}
			return int(x), i + 1, nil
		}
	}
	if len(b) >= frameHeader {
		return 0, 0, errFrameTooBig
	}
	return 0, 0, nil
}

// readFrame reads one frame payload into a pooled slab. The caller owns the
// returned slab and must release it with putSlab(&payload) when done. A
// stream that ends before the first byte is io.EOF; inside a frame it is
// io.ErrUnexpectedEOF.
func readFrame(r interface {
	io.Reader
	io.ByteReader
}) ([]byte, error) {
	var hdr [frameHeader]byte
	n, k := 0, 0
	for i := 0; k == 0; i++ {
		c, err := r.ReadByte()
		if err == io.EOF && i > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		hdr[i] = c
		if n, k, err = frameLen(hdr[:i+1]); err != nil {
			return nil, err
		}
	}
	s := getSlab()
	buf := *s
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	*s = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
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
