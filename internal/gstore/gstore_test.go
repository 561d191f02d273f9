package gstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/query"
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
	buf := Encode(nil, RecordOf(g, hub(g)))
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

func TestLoadSkipsRemovedNodes(t *testing.T) {
	g := gen.Ring(10)
	if err := g.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	st, _ := kvstore.New(2, nil)
	Load(st, g)
	keys := 0
	for slot := range st.NumServers() {
		keys += int(st.Counters(slot).Keys)
	}
	if keys != 9 {
		t.Fatalf("store has %d keys, want 9", keys)
	}
}

func BenchmarkEncode(b *testing.B) {
	g := gen.RMAT(gen.RMATOptions{Nodes: 1000, Edges: 20000, Seed: 1})
	r := RecordOf(g, hub(g))
	buf := make([]byte, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], r)
	}
}

func BenchmarkDecode(b *testing.B) {
	g := gen.RMAT(gen.RMATOptions{Nodes: 1000, Edges: 20000, Seed: 1})
	r := RecordOf(g, hub(g))
	buf := Encode(nil, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(r.Node, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecordEdgeEditing walks one record pair through a sequence of edits:
// idempotent inserts, removal of the lowest-labelled parallel edge, a
// second removal that conflicts, and a relabel.
func TestRecordEdgeEditing(t *testing.T) {
	u := &Record{Node: 1, Out: []graph.Edge{{To: 2, Label: 1}}}
	v := &Record{Node: 3, In: []graph.Edge{{To: 9, Label: 1}}}
	steps := []struct {
		op           query.MutOp
		label        graph.Label
		wantU, wantV bool
		conflict     bool
	}{
		{query.MutAddEdge, 5, true, true, false},
		{query.MutAddEdge, 5, false, false, false}, // already present
		{query.MutAddEdge, 4, true, true, false},   // a parallel edge, another label
		{query.MutRemoveEdge, 0, true, true, false},
		{query.MutRemoveEdge, 0, true, true, false},
		{query.MutRemoveEdge, 0, false, false, true},
	}
	for i, s := range steps {
		wu, wv, err := Apply(s.op, s.label, u, v, true, true)
		if wu != s.wantU || wv != s.wantV || errors.Is(err, query.ErrConflict) != s.conflict {
			t.Fatalf("step %d (%v %d): (%v, %v, %v), want (%v, %v, conflict %v)", i, s.op, s.label, wu, wv, err, s.wantU, s.wantV, s.conflict)
		}
		if i == 3 {
			// The first removal took the label-4 edge: the lowest, not the
			// first added.
			want := []graph.Edge{{To: 2, Label: 1}, {To: 3, Label: 5}}
			if !reflect.DeepEqual(u.Out, want) || !reflect.DeepEqual(v.In, []graph.Edge{{To: 9, Label: 1}, {To: 1, Label: 5}}) {
				t.Fatalf("after removing the lowest label: u.Out %v, v.In %v", u.Out, v.In)
			}
		}
	}
	if !reflect.DeepEqual(u.Out, []graph.Edge{{To: 2, Label: 1}}) || !reflect.DeepEqual(v.In, []graph.Edge{{To: 9, Label: 1}}) {
		t.Fatalf("edits left u.Out %v, v.In %v", u.Out, v.In)
	}
	if wu, wv, err := Apply(query.MutUpsertNode, 7, u, nil, true, false); !wu || wv || err != nil || u.NodeLabel != 7 {
		t.Fatalf("upsert: (%v, %v, %v), label %d", wu, wv, err, u.NodeLabel)
	}
}

// TestApply covers every op against every endpoint found/absent pairing and
// a changed and an unchanged pre-image: which records Apply reports
// changed, what they hold afterwards, and that an error changes nothing.
func TestApply(t *testing.T) {
	const a, b = graph.Label(1), graph.Label(2)
	out := func(es ...graph.Edge) []graph.Edge { return es }
	ed := func(to graph.NodeID, l graph.Label) graph.Edge { return graph.Edge{To: to, Label: l} }
	type recs struct{ uOut, vIn []graph.Edge }
	for _, c := range []struct {
		name           string
		op             query.MutOp
		label          graph.Label
		uFound, vFound bool
		pre, post      recs
		wantU, wantV   bool
		wantErr        error
	}{
		{name: "upsert absent", op: query.MutUpsertNode, label: a, uFound: false, wantU: true},
		{name: "upsert relabel", op: query.MutUpsertNode, label: b, uFound: true, wantU: true},
		{name: "upsert same label still rewrites", op: query.MutUpsertNode, label: 0, uFound: true, wantU: true},
		{name: "add, u absent", op: query.MutAddEdge, label: a, uFound: false, vFound: true, wantErr: query.ErrConflict},
		{name: "add, v absent", op: query.MutAddEdge, label: a, uFound: true, vFound: false, wantErr: query.ErrConflict},
		{name: "add, both absent", op: query.MutAddEdge, label: a, wantErr: query.ErrConflict},
		{name: "add new", op: query.MutAddEdge, label: a, uFound: true, vFound: true,
			post: recs{out(ed(3, a)), out(ed(1, a))}, wantU: true, wantV: true},
		{name: "add present", op: query.MutAddEdge, label: a, uFound: true, vFound: true,
			pre:  recs{out(ed(3, a)), out(ed(1, a))},
			post: recs{out(ed(3, a)), out(ed(1, a))}},
		{name: "add heals v's half", op: query.MutAddEdge, label: a, uFound: true, vFound: true,
			pre:  recs{out(ed(3, a)), nil},
			post: recs{out(ed(3, a)), out(ed(1, a))}, wantV: true},
		{name: "add heals u's half", op: query.MutAddEdge, label: a, uFound: true, vFound: true,
			pre:  recs{nil, out(ed(1, a))},
			post: recs{out(ed(3, a)), out(ed(1, a))}, wantU: true},
		{name: "add parallel label", op: query.MutAddEdge, label: b, uFound: true, vFound: true,
			pre:  recs{out(ed(3, a)), out(ed(1, a))},
			post: recs{out(ed(3, a), ed(3, b)), out(ed(1, a), ed(1, b))}, wantU: true, wantV: true},
		{name: "remove, u absent", op: query.MutRemoveEdge, uFound: false, vFound: true,
			pre: recs{nil, out(ed(1, a))}, post: recs{nil, out(ed(1, a))}, wantErr: query.ErrConflict},
		{name: "remove, v absent", op: query.MutRemoveEdge, uFound: true, vFound: false,
			pre: recs{out(ed(3, a)), nil}, post: recs{out(ed(3, a)), nil}, wantErr: query.ErrConflict},
		{name: "remove, both absent", op: query.MutRemoveEdge, wantErr: query.ErrConflict},
		{name: "remove present", op: query.MutRemoveEdge, uFound: true, vFound: true,
			pre:  recs{out(ed(2, a), ed(3, a)), out(ed(1, a))},
			post: recs{out(ed(2, a)), out()}, wantU: true, wantV: true},
		{name: "remove absent edge", op: query.MutRemoveEdge, uFound: true, vFound: true,
			pre:  recs{out(ed(2, a)), out(ed(4, a))},
			post: recs{out(ed(2, a)), out(ed(4, a))}, wantErr: query.ErrConflict},
		{name: "remove u's half", op: query.MutRemoveEdge, uFound: true, vFound: true,
			pre: recs{out(ed(3, a)), nil}, post: recs{out(), nil}, wantU: true},
		{name: "remove v's half", op: query.MutRemoveEdge, uFound: true, vFound: true,
			pre: recs{nil, out(ed(1, b))}, post: recs{nil, out()}, wantV: true},
		{name: "remove lowest parallel label", op: query.MutRemoveEdge, uFound: true, vFound: true,
			pre:  recs{out(ed(3, b), ed(3, a)), out(ed(1, b), ed(1, a))},
			post: recs{out(ed(3, b)), out(ed(1, b))}, wantU: true, wantV: true},
		{name: "remove keeps the sides consistent", op: query.MutRemoveEdge, uFound: true, vFound: true,
			pre:  recs{out(ed(3, a), ed(3, b)), out(ed(1, b))},
			post: recs{out(ed(3, b)), out(ed(1, b))}, wantU: true},
		{name: "unknown op", op: query.MutOp(9), uFound: true, vFound: true, wantErr: query.ErrBadQuery},
	} {
		t.Run(c.name, func(t *testing.T) {
			u := &Record{Node: 1, Out: c.pre.uOut}
			v := &Record{Node: 3, In: c.pre.vIn}
			if c.op == query.MutUpsertNode {
				v = nil
			}
			wu, wv, err := Apply(c.op, c.label, u, v, c.uFound, c.vFound)
			if !errors.Is(err, c.wantErr) || (err != nil) != (c.wantErr != nil) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if wu != c.wantU || wv != c.wantV {
				t.Fatalf("writes (%v, %v), want (%v, %v)", wu, wv, c.wantU, c.wantV)
			}
			if c.op == query.MutUpsertNode {
				if u.NodeLabel != c.label {
					t.Fatalf("label %d, want %d", u.NodeLabel, c.label)
				}
				return
			}
			post := c.post
			if err != nil {
				post = c.pre
			}
			if len(u.Out) != len(post.uOut) || len(u.Out) > 0 && !reflect.DeepEqual(u.Out, post.uOut) ||
				len(v.In) != len(post.vIn) || len(v.In) > 0 && !reflect.DeepEqual(v.In, post.vIn) {
				t.Fatalf("u.Out %v, v.In %v; want %v, %v", u.Out, v.In, post.uOut, post.vIn)
			}
		})
	}
}

// TestOracleIsTheRecordEdit holds query.Mutation.Apply, the oracle, and
// Apply, the edit both transports make on stored records, to one contract:
// for every op, each endpoint present or absent and the u->v edge absent,
// single or parallel, the two fail with the same error class and leave the
// same records behind.
func TestOracleIsTheRecordEdit(t *testing.T) {
	const u, v = graph.NodeID(1), graph.NodeID(3)
	// build is the pre-state, deterministic so two builds intern the same
	// label ids: "a" < "b", unrelated edges u->0 and 0->v that every edit
	// must keep, and the u->v edges labelled uv in that order.
	build := func(uLive, vLive bool, uv []string) *graph.Graph {
		g := graph.New()
		a := g.InternLabel("a")
		g.InternLabel("b")
		g.UpsertNode(0, graph.NoLabel)
		g.UpsertNode(5, graph.NoLabel)
		if uLive {
			g.UpsertNode(u, a)
			g.EnsureEdge(u, 0, a)
		}
		if vLive {
			g.UpsertNode(v, graph.NoLabel)
			g.EnsureEdge(0, v, a)
		}
		for _, l := range uv {
			if err := g.AddEdge(u, v, l); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	class := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, query.ErrConflict):
			return "conflict"
		case errors.Is(err, query.ErrBadQuery):
			return "bad"
		}
		return err.Error()
	}
	same := func(a, b *Record) bool {
		return a.Node == b.Node && a.NodeLabel == b.NodeLabel && slices.Equal(a.Out, b.Out) && slices.Equal(a.In, b.In)
	}
	muts := []query.Mutation{
		{Op: query.MutUpsertNode, Node: u, Label: "b"},
		{Op: query.MutUpsertNode, Node: u, Label: "fresh"},
		{Op: query.MutAddEdge, Node: u, To: v, Label: "b"},
		{Op: query.MutAddEdge, Node: u, To: v, Label: "fresh"},
		{Op: query.MutRemoveEdge, Node: u, To: v},
		{Op: query.MutOp(9), Node: u, To: v},
	}
	cases := 0
	for _, m := range muts {
		for _, live := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
			for _, uv := range [][]string{nil, {"a"}, {"b", "a"}} {
				if uv != nil && !(live[0] && live[1]) {
					continue // an edge needs both endpoints
				}
				name := fmt.Sprintf("%v %q u=%v v=%v uv=%v", m.Op, m.Label, live[0], live[1], uv)
				oracle := build(live[0], live[1], uv)
				oracleErr := m.Apply(oracle)

				g := build(live[0], live[1], uv)
				ur, vr := RecordOf(g, u), RecordOf(g, v)
				var vArg *Record
				if m.Op != query.MutUpsertNode {
					vArg = vr
				}
				_, _, recErr := Apply(m.Op, g.InternLabel(m.Label), ur, vArg, g.Exists(u), g.Exists(v))

				if class(oracleErr) != class(recErr) {
					t.Errorf("%s: oracle %v, record edit %v", name, oracleErr, recErr)
					continue
				}
				if want := RecordOf(oracle, u); !same(ur, want) {
					t.Errorf("%s: u's record %+v, oracle's %+v", name, ur, want)
				}
				if want := RecordOf(oracle, v); !same(vr, want) {
					t.Errorf("%s: v's record %+v, oracle's %+v", name, vr, want)
				}
				cases++
			}
		}
	}
	if cases != len(muts)*6 {
		t.Fatalf("ran %d cases, want %d", cases, len(muts)*6)
	}
}

// TestReadBatchIntoIsStoredBytes: the raw batched read hands back exactly
// the bytes the store holds, nil for an id with no record, and refuses a
// short destination.
func TestReadBatchIntoIsStoredBytes(t *testing.T) {
	tier, _ := newLoadedTier(t)
	ids := []graph.NodeID{5, 99999, 0, 250}
	dst := make([][]byte, len(ids))
	if err := tier.ReadBatchInto(ids, graph.Both, dst, nil); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, _ := tier.Store().Get(uint64(id))
		if !bytes.Equal(dst[i], want) || (dst[i] == nil) != (want == nil) {
			t.Fatalf("id %d: read %x, stored %x", id, dst[i], want)
		}
	}
	if err := tier.ReadBatchInto(ids, graph.Both, dst[:2], nil); err == nil {
		t.Fatal("short destination accepted")
	}
}

// TestDecodeIntoSharesOneArena: records decoded one after another into one
// arena agree with Decode, keep their values as the arena grows past its
// capacity, cap each list so appending to one cannot write into the next,
// and a corrupt record leaves the arena as it was.
func TestDecodeIntoSharesOneArena(t *testing.T) {
	recs := []*Record{
		{Node: 1, NodeLabel: 3, Out: []graph.Edge{{To: 2}, {To: 9, Label: 1}}, In: []graph.Edge{{To: 4}}},
		{Node: 2, Out: []graph.Edge{{To: 1}}},
		{Node: 3, NodeLabel: 1, In: []graph.Edge{{To: 1, Label: 2}, {To: 2}, {To: 300}}},
	}
	arena := make([]graph.Edge, 0, 2)
	var got []Record
	for _, r := range recs {
		dec, next, err := DecodeInto(r.Node, Encode(nil, r), arena)
		if err != nil {
			t.Fatal(err)
		}
		arena = next
		got = append(got, dec)
	}
	for i, r := range recs {
		want, _ := Decode(r.Node, Encode(nil, r))
		if got[i].NodeLabel != want.NodeLabel || !slices.Equal(got[i].Out, want.Out) || !slices.Equal(got[i].In, want.In) {
			t.Fatalf("record %d decoded into the arena as %+v, want %+v", r.Node, got[i], want)
		}
		if cap(got[i].Out) != len(got[i].Out) || cap(got[i].In) != len(got[i].In) {
			t.Fatalf("record %d: lists not capacity-capped", r.Node)
		}
	}
	if n := len(arena); n != 7 {
		t.Fatalf("arena holds %d edges, want 7", n)
	}
	if _, same, err := DecodeInto(4, []byte{0, 5, 1}, arena); err == nil || len(same) != len(arena) {
		t.Fatalf("corrupt record: err %v, arena %d -> %d edges", err, len(arena), len(same))
	}
}

// TestRecordRemoveDoesNotClobberDecodeSiblings: a decoded record's Out and
// In share one backing array; an edit of either must copy, never compact or
// grow in place, or the other would be corrupted.
func TestRecordRemoveDoesNotClobberDecodeSiblings(t *testing.T) {
	orig := &Record{
		Node: 7,
		Out:  []graph.Edge{{To: 1, Label: 1}, {To: 2, Label: 2}, {To: 3, Label: 3}},
		In:   []graph.Edge{{To: 1, Label: 1}, {To: 5, Label: 5}},
	}
	dec, err := Decode(7, Encode(nil, orig))
	if err != nil {
		t.Fatal(err)
	}
	peer := &Record{Node: 1, Out: []graph.Edge{{To: 7, Label: 1}}, In: []graph.Edge{{To: 7, Label: 1}}}
	wantIn, wantOut := sortEdges(orig.In), []graph.Edge{{To: 2, Label: 2}, {To: 3, Label: 3}}
	if wu, wv, err := Apply(query.MutRemoveEdge, 0, &dec, peer, true, true); !wu || !wv || err != nil {
		t.Fatalf("remove 7->1: (%v, %v, %v)", wu, wv, err)
	}
	if got := sortEdges(dec.In); !reflect.DeepEqual(got, wantIn) {
		t.Fatalf("In corrupted by removing from Out: %+v, want %+v", got, wantIn)
	}
	if wu, wv, err := Apply(query.MutRemoveEdge, 0, peer, &dec, true, true); !wu || !wv || err != nil {
		t.Fatalf("remove 1->7: (%v, %v, %v)", wu, wv, err)
	}
	if !reflect.DeepEqual(dec.Out, wantOut) {
		t.Fatalf("Out corrupted by removing from In: %+v, want %+v", dec.Out, wantOut)
	}
	dec, _ = Decode(7, Encode(nil, orig))
	if _, _, err := Apply(query.MutAddEdge, 9, &dec, &Record{Node: 9}, true, true); err != nil {
		t.Fatal(err)
	}
	if got := sortEdges(dec.In); !reflect.DeepEqual(got, wantIn) {
		t.Fatalf("In corrupted by adding to Out: %+v, want %+v", got, wantIn)
	}
}

// hub is g's node of the highest total degree, the lowest id on ties: the
// longest record to encode.
func hub(g *graph.Graph) graph.NodeID {
	var h graph.NodeID
	for u := range g.MaxNodeID() {
		if g.Degree(u) > g.Degree(h) {
			h = u
		}
	}
	return h
}
