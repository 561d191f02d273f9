package gstore

import (
	"encoding/binary"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kvstore"
)

func sortEdges(es []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, len(es))
	copy(out, es)
	sort.Slice(out, func(i, j int) bool {
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Label < out[j].Label
	})
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := &Record{
		Node:      42,
		NodeLabel: 3,
		Out:       []graph.Edge{{To: 7, Label: 1}, {To: 3, Label: 0}, {To: 7, Label: 2}},
		In:        []graph.Edge{{To: 100000, Label: 9}},
	}
	buf := Encode(nil, r)
	got, err := Decode(42, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != 42 || got.NodeLabel != 3 {
		t.Fatalf("decoded header = %+v", got)
	}
	if !reflect.DeepEqual(got.Out, sortEdges(r.Out)) {
		t.Fatalf("Out = %v, want %v", got.Out, sortEdges(r.Out))
	}
	if !reflect.DeepEqual(got.In, sortEdges(r.In)) {
		t.Fatalf("In = %v, want %v", got.In, sortEdges(r.In))
	}
}

func TestEncodeEmptyRecord(t *testing.T) {
	r := &Record{Node: 1}
	buf := Encode(nil, r)
	got, err := Decode(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Out) != 0 || len(got.In) != 0 || got.NodeLabel != 0 {
		t.Fatalf("decoded empty record = %+v", got)
	}
}

func TestEncodeDoesNotMutateInput(t *testing.T) {
	out := []graph.Edge{{To: 9}, {To: 1}, {To: 5}}
	r := &Record{Node: 0, Out: out}
	Encode(nil, r)
	if out[0].To != 9 || out[1].To != 1 || out[2].To != 5 {
		t.Fatalf("Encode sorted the caller's slice: %v", out)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                       // missing label
		{0x00},                   // missing out count
		{0x00, 0x05},             // out count 5 with no edge data
		{0x00, 0x01, 0x03},       // edge missing label varint
		{0x00, 0x00, 0x00, 0xff}, // trailing garbage / truncated in-list
	}
	for i, data := range cases {
		if _, err := Decode(0, data); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
	}
}

func TestDecodeOversizedCount(t *testing.T) {
	// A legitimate edge costs >= 2 varint bytes, so any count above
	// len(rest)/2 must be rejected before allocation. These payloads claim
	// huge lists backed by almost no data.
	cases := [][]byte{
		append([]byte{0x00}, binary.AppendUvarint(nil, 1<<40)...),      // out count 2^40, no data
		append([]byte{0x00, 0x03}, 0x01, 0x00, 0x01, 0x00, 0x01, 0x00), // count 3 but only 3 edges' worth... exactly enough
	}
	if _, err := Decode(0, cases[0]); err == nil {
		t.Error("oversized out count decoded without error")
	}
	// cases[1] is count=3 with exactly 6 bytes: valid out-list, then the
	// in-list count is missing -> must error on the in list, not panic.
	if _, err := Decode(0, cases[1]); err == nil {
		t.Error("record with missing in-list decoded without error")
	}
	// count*2 overflow attempt: count near MaxUint64 must not wrap past
	// the guard.
	huge := append([]byte{0x00}, binary.AppendUvarint(nil, ^uint64(0)>>1)...)
	if _, err := Decode(0, huge); err == nil {
		t.Error("wrap-around count decoded without error")
	}
}

// TestDecodeFuzzTruncatedAndMutated decodes every truncation and many
// deterministic single-byte mutations of a real encoded record: Decode
// must never panic or over-allocate, and full-length unmutated input must
// round-trip.
func TestDecodeFuzzTruncatedAndMutated(t *testing.T) {
	g := gen.ErdosRenyi(200, 2000, 9)
	buf := Encode(nil, RecordOf(g, g.NodesByDegreeDesc()[0]))
	for n := 0; n < len(buf); n++ {
		if _, err := Decode(1, buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	if _, err := Decode(1, buf); err != nil {
		t.Fatalf("full record failed to decode: %v", err)
	}
	mut := make([]byte, len(buf))
	for i := 0; i < len(buf); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			copy(mut, buf)
			mut[i] ^= flip
			_, _ = Decode(1, mut) // must not panic; error or reinterpretation both fine
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	buf := Encode(nil, &Record{Node: 1})
	buf = append(buf, 0x7)
	if _, err := Decode(1, buf); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// Property: arbitrary edge lists survive the codec (up to sorting).
func TestQuickRoundTrip(t *testing.T) {
	f := func(nodeLabel uint16, rawOut, rawIn []uint32) bool {
		r := &Record{Node: 5, NodeLabel: graph.Label(nodeLabel)}
		for _, v := range rawOut {
			r.Out = append(r.Out, graph.Edge{To: graph.NodeID(v), Label: graph.Label(v % 17)})
		}
		for _, v := range rawIn {
			r.In = append(r.In, graph.Edge{To: graph.NodeID(v), Label: graph.Label(v % 5)})
		}
		buf := Encode(nil, r)
		got, err := Decode(5, buf)
		if err != nil {
			return false
		}
		return got.NodeLabel == r.NodeLabel &&
			reflect.DeepEqual(got.Out, sortEdges(r.Out)) &&
			reflect.DeepEqual(got.In, sortEdges(r.In))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func newLoadedTier(t *testing.T) (*Tier, *graph.Graph) {
	t.Helper()
	g := gen.ErdosRenyi(300, 1500, 4)
	st, err := kvstore.New(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total := Load(st, g); total <= 0 {
		t.Fatalf("Load returned %d bytes", total)
	}
	return NewTier(st), g
}

func TestLoadAndFetchMatchesGraph(t *testing.T) {
	tier, g := newLoadedTier(t)
	for _, id := range []graph.NodeID{0, 1, 137, 299} {
		r, ok, err := tier.Fetch(id)
		if err != nil || !ok {
			t.Fatalf("Fetch(%d): ok=%v err=%v", id, ok, err)
		}
		if len(r.Out) != g.OutDegree(id) {
			t.Fatalf("node %d: fetched %d out-edges, graph has %d", id, len(r.Out), g.OutDegree(id))
		}
		if len(r.In) != g.InDegree(id) {
			t.Fatalf("node %d: fetched %d in-edges, graph has %d", id, len(r.In), g.InDegree(id))
		}
		if !reflect.DeepEqual(r.Out, sortEdges(g.OutEdges(id))) {
			t.Fatalf("node %d: out-edges differ", id)
		}
	}
}

func TestFetchMissing(t *testing.T) {
	tier, _ := newLoadedTier(t)
	_, ok, err := tier.Fetch(99999)
	if ok || err != nil {
		t.Fatalf("Fetch(missing) = ok %v err %v", ok, err)
	}
}

// TestFetchBatchInto checks the batched fetch on a mix of present and
// dangling ids in no particular order: positional results agree with
// single fetches, and every batch is observed with its bytes.
func TestFetchBatchInto(t *testing.T) {
	tier, _ := newLoadedTier(t)
	ids := []graph.NodeID{5, 99999, 0, 250, 77777, 1, 131, 2}
	var batches int
	var totalBytes int64
	dst := make([]FetchResult, len(ids))
	err := tier.FetchBatchInto(ids, dst, func(b kvstore.Batch, bytes int64) {
		batches++
		totalBytes += bytes
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(ids []graph.NodeID) {
		t.Helper()
		for i, id := range ids {
			want, ok, err := tier.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			if dst[i].OK != ok {
				t.Fatalf("id %d: got OK=%v, want OK=%v", id, dst[i].OK, ok)
			}
			if !reflect.DeepEqual(dst[i].Record, want) {
				t.Fatalf("id %d: batched record differs from the single fetch", id)
			}
		}
	}
	check(ids)
	if dst[0].OK == dst[1].OK {
		t.Fatalf("presence flags wrong: %+v, %+v", dst[0], dst[1])
	}
	if batches == 0 || totalBytes <= 0 {
		t.Fatalf("onBatch not invoked: batches=%d bytes=%d", batches, totalBytes)
	}
	// Reusing the same destination (and the pooled scratch) must not leak
	// state between calls.
	sub := ids[:3]
	if err := tier.FetchBatchInto(sub, dst, nil); err != nil {
		t.Fatal(err)
	}
	check(sub)
}

func TestFetchBatchIntoShortDst(t *testing.T) {
	tier, _ := newLoadedTier(t)
	if err := tier.FetchBatchInto([]graph.NodeID{1, 2, 3}, make([]FetchResult, 2), nil); err == nil {
		t.Fatal("short destination accepted")
	}
}

func TestUpdateNode(t *testing.T) {
	tier, g := newLoadedTier(t)
	// Mutate the graph, then push the update.
	target := graph.NodeID(10)
	before := g.OutDegree(target)
	if err := g.AddEdge(target, 11, "new"); err != nil {
		t.Fatal(err)
	}
	tier.UpdateNode(g, target)
	r, ok, err := tier.Fetch(target)
	if err != nil || !ok {
		t.Fatalf("Fetch after update: %v %v", ok, err)
	}
	if len(r.Out) != before+1 {
		t.Fatalf("updated record has %d out-edges, want %d", len(r.Out), before+1)
	}
	// Removing the node deletes the record.
	if err := g.RemoveNode(target); err != nil {
		t.Fatal(err)
	}
	tier.UpdateNode(g, target)
	if _, ok, _ := tier.Fetch(target); ok {
		t.Fatal("record survives node removal")
	}
}

func TestLoadSkipsRemovedNodes(t *testing.T) {
	g := gen.Ring(10)
	if err := g.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	st, _ := kvstore.New(2, nil)
	Load(st, g)
	if st.TotalKeys() != 9 {
		t.Fatalf("store has %d keys, want 9", st.TotalKeys())
	}
}

func BenchmarkEncode(b *testing.B) {
	g := gen.RMAT(gen.RMATOptions{Nodes: 1000, Edges: 20000, Seed: 1})
	r := RecordOf(g, g.NodesByDegreeDesc()[0])
	buf := make([]byte, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], r)
	}
}

func BenchmarkDecode(b *testing.B) {
	g := gen.RMAT(gen.RMATOptions{Nodes: 1000, Edges: 20000, Seed: 1})
	r := RecordOf(g, g.NodesByDegreeDesc()[0])
	buf := Encode(nil, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(r.Node, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecordEdgeEditing covers the in-place record editors the networked
// mutate path rewrites fetched records with: idempotent inserts, removal
// by destination (any label), and the copy-on-remove discipline that
// keeps Decode's shared backing array intact.
func TestRecordEdgeEditing(t *testing.T) {
	r := &Record{
		Node: 1,
		Out:  []graph.Edge{{To: 2, Label: 1}, {To: 3, Label: 2}},
		In:   []graph.Edge{{To: 9, Label: 1}},
	}
	if !r.HasOut(2, 1) || r.HasOut(2, 2) || r.HasOut(5, 1) {
		t.Fatal("HasOut wrong")
	}
	if r.EnsureOut(2, 1) {
		t.Fatal("EnsureOut inserted a duplicate")
	}
	if !r.EnsureOut(5, 3) || !r.HasOut(5, 3) {
		t.Fatal("EnsureOut failed to insert")
	}
	if r.EnsureIn(9, 1) {
		t.Fatal("EnsureIn inserted a duplicate")
	}
	if !r.EnsureIn(8, 2) || len(r.In) != 2 {
		t.Fatal("EnsureIn failed to insert")
	}
	if r.RemoveOut(99) {
		t.Fatal("RemoveOut removed a missing edge")
	}
	if !r.RemoveOut(3) || r.HasOut(3, 2) || len(r.Out) != 2 {
		t.Fatalf("RemoveOut: %+v", r.Out)
	}
	if !r.RemoveIn(9) || len(r.In) != 1 || r.In[0].To != 8 {
		t.Fatalf("RemoveIn: %+v", r.In)
	}
	if r.RemoveIn(9) {
		t.Fatal("RemoveIn removed twice")
	}
}

// TestRecordRemoveDoesNotClobberDecodeSiblings: a decoded record's Out and
// In share one backing array; removing from Out must copy, never compact
// in place, or In would be corrupted.
func TestRecordRemoveDoesNotClobberDecodeSiblings(t *testing.T) {
	orig := &Record{
		Node: 7,
		Out:  []graph.Edge{{To: 1, Label: 1}, {To: 2, Label: 2}, {To: 3, Label: 3}},
		In:   []graph.Edge{{To: 4, Label: 4}, {To: 5, Label: 5}},
	}
	dec, err := Decode(7, Encode(nil, orig))
	if err != nil {
		t.Fatal(err)
	}
	wantIn := sortEdges(orig.In)
	if !dec.RemoveOut(1) {
		t.Fatal("RemoveOut missed")
	}
	if got := sortEdges(dec.In); !reflect.DeepEqual(got, wantIn) {
		t.Fatalf("In corrupted by RemoveOut: %+v, want %+v", got, wantIn)
	}
	dec.EnsureOut(9, 9)
	if got := sortEdges(dec.In); !reflect.DeepEqual(got, wantIn) {
		t.Fatalf("In corrupted by EnsureOut: %+v, want %+v", got, wantIn)
	}
}

// TestUpdateNodeReturnsCostInputs: the write path's virtual-time charge
// and ack are built on UpdateNode's (bytes, version) return.
func TestUpdateNodeReturnsCostInputs(t *testing.T) {
	tier, g := newLoadedTier(t)
	target := graph.NodeID(20)
	bytes, ver := tier.UpdateNode(g, target)
	if bytes <= 0 || ver == 0 {
		t.Fatalf("UpdateNode = (%d, %d), want positive bytes and version", bytes, ver)
	}
	if err := g.AddEdge(target, 21, "new"); err != nil {
		t.Fatal(err)
	}
	bytes2, ver2 := tier.UpdateNode(g, target)
	if bytes2 <= bytes || ver2 <= ver {
		t.Fatalf("grown record: (%d, %d) after (%d, %d)", bytes2, ver2, bytes, ver)
	}
	if err := g.RemoveNode(target); err != nil {
		t.Fatal(err)
	}
	if bytes, ver := tier.UpdateNode(g, target); bytes != 0 || ver != 0 {
		t.Fatalf("delete returned (%d, %d), want (0, 0)", bytes, ver)
	}
}

// TestPutRecord: storing an explicit record lands the encoded bytes under
// its node id.
func TestPutRecord(t *testing.T) {
	st, err := kvstore.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	tier := NewTier(st)
	r := &Record{Node: 77, NodeLabel: 1, Out: []graph.Edge{{To: 5, Label: 2}}}
	bytes, ver := tier.PutRecord(r)
	if bytes != len(Encode(nil, r)) || ver == 0 {
		t.Fatalf("PutRecord = (%d, %d)", bytes, ver)
	}
	got, ok, err := tier.Fetch(77)
	if err != nil || !ok {
		t.Fatalf("Fetch: %v %v", ok, err)
	}
	if got.NodeLabel != 1 || !got.HasOut(5, 2) {
		t.Fatalf("fetched %+v", got)
	}
}
