package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// The stats payload is encoded by a reflect walk over its structs
// (appendFields/decFields). These tests prove the walk instead of assuming it:
// it writes the bytes the hand-written field lists wrote, it can drop no
// field, and the schema holds nothing it would refuse.

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return frame
}

// TestGoldenFrames pins the response frames byte for byte. The files under
// testdata hold what the commit before the walker existed wrote — its
// appendStats/appendSnapshot/appendSummary field lists — from these same two
// fixtures, plus the four appends the schema has seen since, each checked
// against the older file when it was made: Stats grew three counters (Bytes,
// ReadMisses, RecoverNanos; three 0x00 bytes where the stats payload ends),
// Snapshot grew RoutingTableBytes, one varint where the snapshot ends —
// 0x00 in the first fixture, 80b0ea01 (1,920,000) in the second — and then
// EmbedDimensions and EmbedProvider, a varint and a string behind it: 0000,
// and 10 07 "learned" (8). (EmbedEvalsPerNode and EmbedCapped sat between the
// two for a while, 0000 and ae02 8804; when the searches they counted went,
// the files lost exactly those bytes.) When the cache counters every
// OpExecute reply carried left the envelope, and their bitmap bit with them,
// the first file lost the seven varints behind Proc, 14 04 00 00 00 80808001
// 00 (Hits 10, Misses 2, CurrentBytes 1 MiB), its bitmap went ff0f → ff07
// and its length prefix 0x119 → 0x10f; the second carries Stats alone, whose
// bit moved down one: bitmap 8002 → 8001. Then Stats stopped mirroring a
// shard's counters under its own names: Keys, Reads, Hits, Misses, the six
// durability fields and the three trailing ones went, and a shard's row
// travels as Storage, a *metrics.StorageCounters between Cache and
// Snapshot. The first fixture moved its storage values into that row: the
// 20 bytes the deleted fields took (Hits and the trailing three included)
// became the row's 24 (a presence byte, Slot/Status/Addr, and Bytes,
// Failovers, RepairBytes and RecoverNanos as 0x00 each) — length prefix
// 0x10f → 0x113, +4 B. The second, a router's, lost the
// thirteen zero bytes and gained Storage's absent-pointer byte — 0x222 →
// 0x216, −12 B. When the single-key get (op 2) retired, its Value and Found
// bits with it, the first file lost Value's 01 76 ("v") and its bitmap went
// ff07 → fc07: length prefix 0x113 → 0x111, −2 B. Every other byte is the
// hand codec's, length prefix aside.
func TestGoldenFrames(t *testing.T) {
	for _, tc := range []struct {
		file string
		resp *Response
	}{
		{"full_response.hex", fullResponse()},
		{"stats7_response.hex", sevenProcStatsResponse()},
	} {
		want := readGolden(t, tc.file)
		var scratch []byte
		if got := encodeResponseFrame(nil, 7, tc.resp, &scratch); !bytes.Equal(got, want) {
			t.Errorf("%s: frame differs from the golden one\n got  %x\n want %x", tc.file, got, want)
		}
		_, rest, _ := peelTag(want[frameHeader:])
		var back Response
		if err := decodeResponseInto(rest, &back); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if !reflect.DeepEqual(&back, tc.resp) {
			t.Errorf("%s decodes to\n %+v\nwant\n %+v", tc.file, &back, tc.resp)
		}
	}
}

// TestGoldenRequestFrames pins the request envelope byte for byte:
// full_request.hex is fullRequest's frame followed by multiPutRequest's, as
// the codec wrote them before mutations became query.Mutation and before the
// OpExecute payload stopped mirroring the header deadline. The one override
// map is written in ascending key order, the order the encoder now always
// uses (it once followed map iteration). The third frame, appended when
// invalidations began to carry edits, is executeEditsRequest's: the edit
// streams ride as Values and their sequence number as Version, fields the
// envelope already had, so the first two frames did not move. When the
// single-key Key and Value fields retired, the first frame lost Key's
// a797b107 (15485863) and Value's 0d "payload-bytes", and its bitmap went
// ff07 → fc07: length prefix 0xc7 → 0xb5, −18 B. The other two frames did
// not move.
func TestGoldenRequestFrames(t *testing.T) {
	want := readGolden(t, "full_request.hex")
	var scratch []byte
	var got []byte
	fixtures := []*Request{fullRequest(), multiPutRequest(), executeEditsRequest()}
	for _, req := range fixtures {
		got = append(got, encodeRequestFrame(nil, 7, req, req.Deadline, &scratch)...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frames differ from the golden ones\n got  %x\n want %x", got, want)
	}
	for _, req := range fixtures {
		end := frameHeader + int(binary.LittleEndian.Uint32(want))
		_, payload, _ := peelTag(want[frameHeader:end])
		want = want[end:]
		var back Request
		if err := decodeRequestInto(payload, &back); err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		back.valBuf = nil // the decoder's buffer behind Values, not an envelope field
		if !reflect.DeepEqual(&back, req) {
			t.Errorf("%v frame decodes to\n %+v\nwant\n %+v", req.Op, &back, req)
		}
	}
}

// fillLeaves sets every leaf reachable from v to a distinct non-zero value:
// two elements in every slice, a target behind every pointer.
func fillLeaves(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillLeaves(v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillLeaves(v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(v.Field(i), next)
		}
	case reflect.String:
		*next++
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint64:
		*next++
		v.SetUint(uint64(*next))
	default:
		*next++
		v.SetInt(*next)
	}
}

// TestStatsRoundTripDropsNoField fills a Stats by reflection, so a field
// added tomorrow is covered the day it is added, and requires the frame to
// bring every one of them back.
func TestStatsRoundTripDropsNoField(t *testing.T) {
	var st Stats
	var n int64
	fillLeaves(reflect.ValueOf(&st).Elem(), &n)
	if n < 100 || st.Cache == nil || st.Storage == nil || st.Snapshot == nil || len(st.Snapshot.PerStorage) != 2 {
		t.Fatalf("fixture filled %d leaves: %+v", n, st)
	}
	want := &Response{OK: true, Stats: &st}
	if got := roundTripResponse(t, want); !reflect.DeepEqual(got, want) {
		t.Errorf("stats round trip mismatch:\n got  %+v\n want %+v", got.Stats, want.Stats)
	}
}

// TestStatsSchemaIsEncodable walks the types behind Stats and fails, here and
// not on a running daemon, if any reachable field is unexported (the walker
// could not set it) or of a kind the walker has no wire form for — a float64
// or a map added to metrics.Snapshot tomorrow.
func TestStatsSchemaIsEncodable(t *testing.T) {
	var check func(typ reflect.Type, path string)
	check = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint64, reflect.String, reflect.Bool:
		case reflect.Slice, reflect.Pointer:
			check(typ.Elem(), path)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s is unexported: the stats codec cannot carry it", path, f.Name)
					continue
				}
				check(f.Type, path+"."+f.Name)
			}
		default:
			t.Errorf("%s is a %s: the stats codec has no wire form for it", path, typ.Kind())
		}
	}
	check(reflect.TypeOf(Stats{}), "Stats")

	// The walker itself refuses what the schema must not hold.
	type bad struct{ F float64 }
	d := wire.NewReader([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	decFields(&d, reflect.ValueOf(&bad{}).Elem())
	if !d.Failed() {
		t.Error("decFields accepted a float64 field")
	}
	defer func() {
		if recover() == nil {
			t.Error("appendFields accepted a float64 field")
		}
	}()
	appendFields(nil, reflect.ValueOf(bad{}))
}

// TestCorruptStatsPayloadFailsDecode corrupts a slice count inside the stats
// payload: the decode must fail — the count is checked against the bytes
// left before anything is allocated — and not panic.
func TestCorruptStatsPayloadFailsDecode(t *testing.T) {
	if err := decodeResponseInto(corruptStatsFrame()[frameHeader+1:], &Response{}); err == nil {
		t.Fatal("a stats payload with a slice count past its frame decoded cleanly")
	}
}

// corruptStatsFrame is a tag-1 OpStats reply whose only non-zero, non-bool
// byte — the count of Snapshot.Epochs — claims more elements than the frame
// has bytes.
func corruptStatsFrame() []byte {
	var scratch []byte
	resp := &Response{OK: true, Stats: &Stats{Snapshot: &metrics.Snapshot{Epochs: make([]metrics.EpochEvent, 3)}}}
	frame := encodeResponseFrame(nil, 1, resp, &scratch)
	frame[bytes.LastIndexByte(frame, 3)] = 0x7f
	return frame
}
