package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mquery"
	"repro/internal/query"
)

// roundTripRequest encodes req as a frame with the given header deadline,
// peels the tag, and decodes into a fresh Request.
func roundTripRequest(t *testing.T, req *Request, deadline int64) *Request {
	t.Helper()
	var scratch []byte
	buf := encodeRequestFrame(nil, 7, req, deadline, &scratch)
	if got := int(binary.LittleEndian.Uint32(buf[:frameHeader])); got != len(buf)-frameHeader {
		t.Fatalf("length prefix = %d, payload = %d", got, len(buf)-frameHeader)
	}
	tag, rest, ok := peelTag(buf[frameHeader:])
	if !ok || tag != 7 {
		t.Fatalf("peelTag = (%d, %v)", tag, ok)
	}
	var got Request
	if err := decodeRequestInto(rest, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	got.valBuf = nil // the decoder's buffer behind Values, not an envelope field
	return &got
}

// TestMultiPutDecodeAllocatesNothing decodes a 300-record OpMultiPut frame
// into a warm request: the values land in the request's own buffer, so the
// decode allocates nothing, and they keep their bytes once the frame is
// reused.
func TestMultiPutDecodeAllocatesNothing(t *testing.T) {
	want := &Request{Op: OpMultiPut}
	for i := 0; i < 300; i++ {
		want.Keys = append(want.Keys, uint64(i))
		want.Values = append(want.Values, bytes.Repeat([]byte{byte(i)}, 20+i%90))
	}
	var scratch []byte
	_, payload, _ := peelTag(encodeRequestFrame(nil, 1, want, 0, &scratch)[frameHeader:])
	var req Request
	decode := func() {
		if err := decodeRequestInto(payload, &req); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("decoding a 300-record multiput into a warm request allocates %.0f times, want 0", allocs)
	}
	clear(payload)
	for i, v := range req.Values {
		if !bytes.Equal(v, want.Values[i]) {
			t.Fatalf("value %d reads %x after the frame was reused, want %x", i, v, want.Values[i])
		}
	}
}

func roundTripResponse(t *testing.T, resp *Response) *Response {
	t.Helper()
	var scratch []byte
	buf := encodeResponseFrame(nil, 9, resp, &scratch)
	tag, rest, ok := peelTag(buf[frameHeader:])
	if !ok || tag != 9 {
		t.Fatalf("peelTag = (%d, %v)", tag, ok)
	}
	var got Response
	if err := decodeResponseInto(rest, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &got
}

// fullRequest exercises every request envelope field at once, including the
// nested query/subtask/pattern sub-encodings.
func fullRequest() *Request {
	return &Request{
		Op:       OpExecute,
		Deadline: 1_700_000_000_123_456_789,
		Keys:     []uint64{1, 2, 1 << 40},
		Exec: &ExecRequest{
			Queries: []query.Query{
				{
					ID: 3, Type: query.RandomWalk, Node: 42, Target: 99,
					Hops: 4, RestartProb: 0.15, CountLabel: "follows",
					Dir: graph.Both, Seed: -7, Hotspot: 2,
					Anchors: []graph.NodeID{5, 6}, VisitBudget: 1024,
					Pattern: &query.Pattern{
						Nodes: []query.PatternNode{{Anchor: 42}, {Label: "user"}},
						Edges: []query.PatternEdge{{From: 0, To: 1, Label: "follows"}},
					},
				},
				{ID: 4, Type: query.NeighborAgg, Node: 7, Hops: -1, Dir: graph.In},
				{ID: 5, Type: query.KNearest, Node: 42, Hops: 2, K: 8, Dir: graph.Both},
			},
			Subtasks: []mquery.Subtask{
				{Kind: mquery.KindReach, Anchor: 42, Target: 99, Hops: 2, Budget: 64},
				{Kind: mquery.KindKNN, Anchor: 42, Radius: 2},
			},
		},
		Addr:      "10.0.0.71:7101",
		Proc:      5,
		Tier:      "storage",
		Version:   12,
		Muts:      []query.Mutation{{Op: query.MutAddEdge, Node: 1, To: 2, Label: "knows"}, {Op: query.MutRemoveEdge, Node: 9, To: 1}},
		Overrides: map[uint64][]int{42: {1, 0}, 99: {2}},
	}
}

// multiPutRequest is an OpMultiPut frame: positional keys and values, the
// one envelope field fullRequest predates.
func multiPutRequest() *Request {
	return &Request{Op: OpMultiPut, Keys: []uint64{3, 1 << 40, 3}, Values: [][]byte{[]byte("a"), {0, 255, 1}, []byte("record-bytes")}}
}

// executeEditsRequest is an OpExecute frame as the router forwards it with
// two invalidations queued, numbered up to 41: key 12's edit stream — one
// edit, its out-edge to 300 under label 2 now held once — and key 300's
// eviction, an empty stream.
func executeEditsRequest() *Request {
	return &Request{
		Op: OpExecute, Keys: []uint64{12, 300}, Values: [][]byte{{1, 1, 0xac, 0x02, 2, 1}, {}}, Version: 41,
		Exec: &ExecRequest{Queries: []query.Query{{ID: 5, Type: query.NeighborAgg, Node: 12, Hops: 1, Dir: graph.Out}}},
	}
}

// fullResponse exercises every response envelope field, including the
// storage-bearing stats snapshot.
func fullResponse() *Response {
	return &Response{
		OK:     true,
		Values: [][]byte{[]byte("a"), nil, []byte("ccc")},
		Founds: []bool{true, false, true},
		Results: []query.Result{
			{Type: query.PatternMatch, Count: 12, EndNode: 99, Reachable: true, Matches: 3},
			{Type: query.KNearest, Count: 3,
				Nearest: [query.MaxKNearest]graph.NodeID{9, 4, 1<<32 - 1}},
		},
		Partials: []mquery.Partial{
			{Kind: mquery.KindReach, Anchor: 42, Visited: 64,
				Frontier: []mquery.Boundary{{Node: 7, Hops: 1}}},
			{Kind: mquery.KindKNN, Anchor: 42, Visited: 12,
				Candidates: []graph.NodeID{4, 9, 1<<32 - 1}},
		},
		Epoch: 9,
		Proc:  3,
		Stats: &Stats{
			Role: "router", Requests: 999, Executed: 77, Cache: &metrics.CacheCounters{Hits: 1},
			Storage: &metrics.StorageCounters{Keys: 100, Gets: 5, Misses: 1,
				Durable: "wal", WALBytes: 1 << 16, WALRecords: 12, Snapshots: 2,
				DurableVersion: 3, ReplayedBytes: 512},
			Snapshot: &metrics.Snapshot{
				Transport: "tcp", Policy: "embed", Strategy: "embed",
				Processors: 2, Epoch: 9, Queries: 100, Mutations: 7,
				Stolen: 3, Diverted: 1, Reassigned: 2,
				Epochs: []metrics.EpochEvent{{Tier: "proc", Epoch: 8, Joined: 1, Reassigned: 4}},
				Cache:  metrics.CacheCounters{Hits: 11, Misses: 3},
				PerProc: []metrics.ProcCounters{
					{Proc: 0, Status: "active", Addr: "a:1", Assigned: 50, Executed: 51,
						QueueDepth: 2, Cache: metrics.CacheCounters{Hits: 9}},
				},
				StorageEpoch: 5, StorageReplicas: 2,
				PerStorage: []metrics.StorageCounters{
					{Slot: 0, Status: "active", Addr: "s:1", Keys: 1000, Bytes: 1 << 30,
						Gets: 5000, Misses: 12, Failovers: 1, RepairBytes: 256,
						Durable: "wal", WALBytes: 2048, WALRecords: 9, Snapshots: 1,
						DurableVersion: 2, ReplayedBytes: 100, RecoverNanos: 1e6},
				},
				Placement: metrics.PlacementCounters{
					Cycles: 3, Planned: 10, Moved: 8, MovedBytes: 4096,
					BudgetBytes: 1 << 20, SkippedBudget: 1, SkippedCold: 1, Overrides: 2,
				},
				PlacementLog: []metrics.MoveEvent{
					{Key: 42, From: 0, To: 1, Reader: 1, Reads: 99, Bytes: 512},
				},
				RoutingNanos: metrics.Summary{Count: 100, Mean: 800, P50: 700, P95: 1600, P99: 3100, P999: 8000, Max: 91000},
				QueueDepth:   metrics.Summary{Count: 100, Mean: 2, P50: 1, P95: 7, P99: 15, P999: 31, Max: 63},
			},
		},
		Applied: 4,
		Hot:     []HotKey{{Key: 42, Reads: 1000}, {Key: 7, Reads: -1}},
	}
}

// TestRequestRoundTrip checks every request field survives the binary
// encoding exactly, for both the everything-at-once envelope and the
// sparse common cases.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpPing},
		{Op: OpMultiGet, Keys: []uint64{123456789}},
		{Op: OpMultiGet, Keys: []uint64{0, 1, 1<<64 - 1}},
		{Op: OpMultiPut, Keys: []uint64{1}, Values: [][]byte{{0, 255, 1}}},
		{Op: OpDrop, Keys: []uint64{1, 1 << 40}},
		{Op: OpMutate, Muts: []query.Mutation{{Op: query.MutAddEdge, Node: 42, To: 99}}},
		{Op: OpJoin, Addr: "127.0.0.1:7001", Tier: "storage", Version: 3},
		{Op: OpPlacement, Overrides: map[uint64][]int{7: {0, 2}}},
		multiPutRequest(),
		fullRequest(),
	}
	for _, req := range reqs {
		if got := roundTripRequest(t, req, req.Deadline); !reflect.DeepEqual(got, req) {
			t.Errorf("op %v round trip mismatch:\n got  %+v\n want %+v", req.Op, got, req)
		}
	}
}

// TestResponseRoundTrip checks every response field survives, including
// error responses that carry payload (OpMutate's partial-failure Applied).
func TestResponseRoundTrip(t *testing.T) {
	full := fullResponse()
	got := roundTripResponse(t, full)
	if !reflect.DeepEqual(got, full) {
		t.Errorf("full response mismatch:\n got  %+v\n want %+v", got, full)
	}

	for _, resp := range []*Response{
		{OK: true},
		{},
		{Err: "node 42 missing", Code: CodeUnknownNode},
		{Err: "conflict at op 3", Code: CodeConflict, Applied: 3},
		{OK: true, Values: [][]byte{nil}, Founds: []bool{false}},
	} {
		got := roundTripResponse(t, resp)
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("response round trip mismatch:\n got  %+v\n want %+v", got, resp)
		}
	}

	// An unknown error code degrades to CodeInternal rather than vanishing.
	odd := &Response{Err: "weird", Code: ErrCode("no-such-code")}
	got = roundTripResponse(t, odd)
	if got.Err != "weird" || got.Code != CodeInternal {
		t.Errorf("unknown code round trip = %+v, want internal", got)
	}
}

// TestFrameDecodeTruncation truncates a maximal request and response
// payload at every byte boundary: every strict prefix must decode to an
// error (the bitmap announces fields that then cannot be read, and the
// final reads run off the end), and none may panic.
func TestFrameDecodeTruncation(t *testing.T) {
	var scratch []byte
	respFrame := encodeResponseFrame(nil, 1, fullResponse(), &scratch)

	for _, full := range []*Request{fullRequest(), multiPutRequest()} {
		reqPayload := encodeRequestFrame(nil, 1, full, 12345, &scratch)[frameHeader:]
		for i := 0; i < len(reqPayload); i++ {
			_, rest, ok := peelTag(reqPayload[:i])
			if !ok {
				continue // tag itself truncated: detected before decode
			}
			var req Request
			if err := decodeRequestInto(rest, &req); err == nil {
				t.Fatalf("%v request truncated at %d/%d decoded cleanly", full.Op, i, len(reqPayload))
			}
		}
	}

	respPayload := respFrame[frameHeader:]
	for i := 0; i < len(respPayload); i++ {
		_, rest, ok := peelTag(respPayload[:i])
		if !ok {
			continue
		}
		var resp Response
		if err := decodeResponseInto(rest, &resp); err == nil {
			t.Fatalf("response truncated at %d/%d decoded cleanly", i, len(respPayload))
		}
	}
}

// TestRetiredFieldBitsRefused feeds both decoders the payloads a peer still
// speaking the single-key vocabulary sends — a put of "v7" under key 7 (op
// 4, bits key|value), a get (op 2, bit key) and a found get's reply (bits
// value|found) — and a frame setting a retired bit beside a live one: each
// fails to decode with an error naming the bits, rather than being read as
// some other field.
func TestRetiredFieldBitsRefused(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"single-key put", []byte{4, 0, 0x03, 7, 2, 'v', '7'}},
		{"single-key get", []byte{2, 0, 0x01, 7}},
		{"retired key beside keys", []byte{byte(OpMultiGet), 0, 0x05, 7, 1, 7}},
	} {
		var req Request
		if err := decodeRequestInto(tc.payload, &req); err == nil || !strings.Contains(err.Error(), "unknown field bits") {
			t.Errorf("request %s: err = %v, want unknown field bits", tc.name, err)
		}
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"found get reply", []byte{statusOK, 0x03, 2, 'v', '7'}},
		{"found flag alone", []byte{statusOK, 0x02}},
		{"retired value beside values", []byte{statusOK, 0x05, 1, 'v', 1, 1, 'w'}},
	} {
		var resp Response
		if err := decodeResponseInto(tc.payload, &resp); err == nil || !strings.Contains(err.Error(), "unknown field bits") {
			t.Errorf("response %s: err = %v, want unknown field bits", tc.name, err)
		}
	}
}

// TestReadFrameCorruptLength checks the length prefix is distrusted: an
// oversized claim fails fast with errFrameTooBig instead of allocating,
// and a short body surfaces as an unexpected EOF.
func TestReadFrameCorruptLength(t *testing.T) {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := readFrame(bytes.NewReader(hdr[:])); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("oversized length: err = %v, want errFrameTooBig", err)
	}

	binary.LittleEndian.PutUint32(hdr[:], 100)
	short := append(hdr[:], []byte("only-14-bytes!")...)
	if _, err := readFrame(bytes.NewReader(short)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: err = %v, want unexpected EOF", err)
	}

	if _, err := readFrame(bytes.NewReader(hdr[:2])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short header: err = %v, want unexpected EOF", err)
	}

	// A well-formed empty frame (pure header, zero-length payload) reads
	// back as an empty payload, not an error.
	binary.LittleEndian.PutUint32(hdr[:], 0)
	payload, err := readFrame(bytes.NewReader(hdr[:]))
	if err != nil || len(payload) != 0 {
		t.Fatalf("empty frame: payload = %v, err = %v", payload, err)
	}
	releaseFrame(payload)
}

// FuzzFrameDecode throws arbitrary bytes at both payload decoders. The
// invariants: never panic, and anything that decodes cleanly must
// re-encode to a payload that decodes cleanly again (the codec never
// emits what it cannot read).
func FuzzFrameDecode(f *testing.F) {
	var scratch []byte
	f.Add(encodeRequestFrame(nil, 1, fullRequest(), 12345, &scratch)[frameHeader:])
	f.Add(encodeResponseFrame(nil, 1, fullResponse(), &scratch)[frameHeader:])
	f.Add(encodeRequestFrame(nil, 0, &Request{Op: OpPing}, 0, &scratch)[frameHeader:])
	f.Add(encodeRequestFrame(nil, 2, multiPutRequest(), 0, &scratch)[frameHeader:])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch []byte
		if _, rest, ok := peelTag(data); ok {
			var req Request
			if err := decodeRequestInto(rest, &req); err == nil {
				buf := encodeRequestFrame(nil, 1, &req, req.Deadline, &scratch)
				_, rest2, ok := peelTag(buf[frameHeader:])
				if !ok {
					t.Fatal("re-encoded request: tag unreadable")
				}
				var req2 Request
				if err := decodeRequestInto(rest2, &req2); err != nil {
					t.Fatalf("re-encoded request does not decode: %v", err)
				}
			}
			var resp Response
			if err := decodeResponseInto(rest, &resp); err == nil {
				buf := encodeResponseFrame(nil, 1, &resp, &scratch)
				_, rest2, ok := peelTag(buf[frameHeader:])
				if !ok {
					t.Fatal("re-encoded response: tag unreadable")
				}
				var resp2 Response
				if err := decodeResponseInto(rest2, &resp2); err != nil {
					t.Fatalf("re-encoded response does not decode: %v", err)
				}
			}
		}
		// The frame reader itself must tolerate arbitrary stream bytes.
		if payload, err := readFrame(bytes.NewReader(data)); err == nil {
			releaseFrame(payload)
		}
	})
}
