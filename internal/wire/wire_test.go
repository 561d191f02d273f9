package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// encoded is one value of every primitive, in the order readAll reads them.
func encoded() []byte {
	buf := binary.AppendUvarint(nil, 1<<40)
	buf = binary.AppendVarint(buf, -7)
	buf = binary.AppendUvarint(buf, math.MaxUint32)
	buf = append(buf, 200)
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(1.5))
	buf = AppendF64(buf, -2.25)
	buf = AppendStr(buf, "label")
	buf = AppendBytes(buf, []byte{9, 8, 7})
	buf = AppendBytes(buf, []byte("sub-encoding"))
	buf = binary.AppendUvarint(buf, 2)
	return append(buf, 0xaa, 0xbb)
}

type values struct {
	uv      uint64
	v       int64
	u32     uint64
	u8      byte
	t, f    bool
	f32     float32
	f64     float64
	str     string
	bytes   []byte
	raw     []byte
	count   int
	e0, e1  byte
	failed  bool
	pending int
}

func readAll(d *Reader) values {
	var got values
	got.uv = d.Uvarint()
	got.v = d.Varint()
	got.u32 = d.U32()
	got.u8 = d.U8()
	got.t = d.Bool()
	got.f = d.Bool()
	got.f32 = d.F32()
	got.f64 = d.F64()
	got.str = d.Str(16)
	got.bytes = d.Bytes(make([]byte, 0, 8))
	got.raw = d.Raw()
	got.count = d.Count(4)
	got.e0, got.e1 = d.U8(), d.U8()
	got.failed, got.pending = d.Failed(), d.Len()
	return got
}

func TestReaderRoundTrip(t *testing.T) {
	buf := encoded()
	d := NewReader(buf)
	got := readAll(&d)
	if got.uv != 1<<40 || got.v != -7 || got.u32 != math.MaxUint32 || got.u8 != 200 ||
		!got.t || got.f || got.f32 != 1.5 || got.f64 != -2.25 || got.str != "label" ||
		!bytes.Equal(got.bytes, []byte{9, 8, 7}) || string(got.raw) != "sub-encoding" ||
		got.count != 2 || got.e0 != 0xaa || got.e1 != 0xbb || got.failed || got.pending != 0 {
		t.Fatalf("decoded %+v", got)
	}
	if err := d.Finish("values"); err != nil {
		t.Fatalf("Finish = %v", err)
	}
	// Bytes copies (its result survives the input), Raw aliases.
	for i := range buf {
		buf[i] = 0
	}
	if !bytes.Equal(got.bytes, []byte{9, 8, 7}) || string(got.raw) == "sub-encoding" {
		t.Fatalf("after the input was reused: bytes %v, raw %q", got.bytes, got.raw)
	}
}

// TestReaderTruncation cuts the stream at every byte: every strict prefix
// must end failed (the last reads run off the end), none may panic, and
// Finish must name what was being decoded.
func TestReaderTruncation(t *testing.T) {
	buf := encoded()
	for cut := 0; cut < len(buf); cut++ {
		d := NewReader(buf[:cut])
		if got := readAll(&d); !got.failed {
			t.Fatalf("cut at %d/%d: reader not failed: %+v", cut, len(buf), got)
		}
		if err := d.Finish("values"); err == nil || err.Error() != "values: malformed wire encoding" {
			t.Fatalf("cut at %d: Finish = %v", cut, err)
		}
	}
}

// TestReaderRejects drives each primitive's own bound.
func TestReaderRejects(t *testing.T) {
	uv := func(v uint64, tail ...byte) []byte { return append(binary.AppendUvarint(nil, v), tail...) }
	overlong := bytes.Repeat([]byte{0xff}, 11) // a varint that never ends within 64 bits
	for _, tc := range []struct {
		name string
		in   []byte
		read func(d *Reader)
	}{
		{"uvarint: empty", nil, func(d *Reader) { d.Uvarint() }},
		{"uvarint: unterminated", []byte{0x80}, func(d *Reader) { d.Uvarint() }},
		{"uvarint: past 64 bits", overlong, func(d *Reader) { d.Uvarint() }},
		{"varint: empty", nil, func(d *Reader) { d.Varint() }},
		{"varint: past 64 bits", overlong, func(d *Reader) { d.Varint() }},
		{"u32: 33-bit value", uv(1 << 32), func(d *Reader) { d.U32() }},
		{"u8: empty", nil, func(d *Reader) { d.U8() }},
		{"bool: empty", nil, func(d *Reader) { d.Bool() }},
		{"f32: three bytes", []byte{1, 2, 3}, func(d *Reader) { d.F32() }},
		{"f64: seven bytes", []byte{1, 2, 3, 4, 5, 6, 7}, func(d *Reader) { d.F64() }},
		{"str: over its cap", AppendStr(nil, "toolong"), func(d *Reader) { d.Str(6) }},
		{"str: past the bytes left", uv(4, 'a', 'b', 'c'), func(d *Reader) { d.Str(16) }},
		{"bytes: past the bytes left", uv(4, 1, 2, 3), func(d *Reader) { d.Bytes(nil) }},
		{"bytes: huge length", uv(math.MaxUint64), func(d *Reader) { d.Bytes(nil) }},
		{"raw: past the bytes left", uv(4, 1, 2, 3), func(d *Reader) { d.Raw() }},
		{"count: above its cap", uv(5, 0, 0, 0, 0, 0, 0), func(d *Reader) { d.Count(4) }},
		{"count: above the bytes left", uv(5, 0, 0, 0, 0), func(d *Reader) { d.Count(1 << 20) }},
		{"count: huge", uv(math.MaxUint64), func(d *Reader) { d.Count(math.MaxInt) }},
		{"fail: the caller's own check", []byte{1}, func(d *Reader) { d.Fail() }},
	} {
		d := NewReader(tc.in)
		tc.read(&d)
		if !d.Failed() {
			t.Errorf("%s: reader not failed", tc.name)
		}
		if err := d.Finish("x"); err == nil {
			t.Errorf("%s: Finish = nil", tc.name)
		}
	}

	// At its bound each of them still reads.
	d := NewReader(bytes.Join([][]byte{uv(math.MaxUint32), AppendStr(nil, "sixsix"), uv(4, 0, 0, 0, 0)}, nil))
	if d.U32() != math.MaxUint32 || d.Str(6) != "sixsix" || d.Count(4) != 4 || d.Failed() {
		t.Errorf("values at their bounds were refused")
	}
}

// TestReaderFinishRejectsTrailingBytes: a clean decode that leaves bytes
// behind is an error too, with its own text.
func TestReaderFinishRejectsTrailingBytes(t *testing.T) {
	d := NewReader([]byte{1, 2, 3})
	d.U8()
	if err := d.Finish("frame"); err == nil || err.Error() != "frame: 2 trailing bytes" {
		t.Fatalf("Finish = %v", err)
	}
}

// TestReaderStaysFailed: after the first failure every read returns its zero
// value without consuming anything — valid bytes behind the damage are never
// mistaken for fields — and Finish reports the failure, not the leftovers.
func TestReaderStaysFailed(t *testing.T) {
	d := NewReader(append(binary.AppendUvarint(nil, 1<<32), encoded()...))
	if d.U32() != 0 || !d.Failed() {
		t.Fatal("33-bit value accepted")
	}
	left := d.Len()
	got := readAll(&d)
	if got.uv != 0 || got.v != 0 || got.u32 != 0 || got.u8 != 0 || got.t || got.f ||
		got.f32 != 0 || got.f64 != 0 || got.str != "" || got.bytes != nil || got.raw != nil ||
		got.count != 0 || got.e0 != 0 || got.e1 != 0 || !got.failed {
		t.Fatalf("reads after a failure returned %+v", got)
	}
	if d.Len() != left {
		t.Fatalf("failed reader consumed %d bytes", left-d.Len())
	}
	err := d.Finish("frame")
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("Finish = %v, want the malformed-encoding error", err)
	}
}

// TestBytesReusesItsDestination: the allocation-free half of the envelope
// decoders — a recycled buffer with room is written in place.
func TestBytesReusesItsDestination(t *testing.T) {
	dst := make([]byte, 0, 8)
	d := NewReader(AppendBytes(nil, []byte{1, 2, 3}))
	got := d.Bytes(dst)
	if &got[0] != &dst[:1][0] {
		t.Fatal("Bytes allocated although dst had room")
	}
	d = NewReader(AppendBytes(nil, nil))
	if got := d.Bytes(dst); got == nil || len(got) != 0 {
		t.Fatalf("empty byte string into a buffer = %v, want dst[:0]", got)
	}
}
