package mquery

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

func wireSubtasks() []Subtask {
	return []Subtask{
		{Kind: KindReach, Anchor: 7, Target: 12, Hops: 3, Budget: 64},
		{
			Kind: KindPattern, Anchor: 1, Radius: 2,
			Edges: []EdgeTask{
				{Edge: 0, FromLabel: 3, ToLabel: -1, EdgeLabel: 65535, FromAnchor: 1, ToAnchor: 0},
				{Edge: 15, FromLabel: -1, ToLabel: 0, EdgeLabel: -1, FromAnchor: 0, ToAnchor: 1<<32 - 1},
			},
		},
		{Kind: KindKNN, Anchor: 42, Radius: 2},
	}
}

func wirePartials() []Partial {
	return []Partial{
		{Kind: KindReach, Anchor: 7, Found: true, Visited: 9},
		{
			Kind: KindReach, Anchor: 7, Visited: 64,
			Frontier: []Boundary{{Node: 3, Hops: 2}, {Node: 1<<32 - 1, Hops: 1}},
		},
		{
			Kind: KindPattern, Anchor: 1, Visited: 40,
			Rels: []EdgeRel{
				{Edge: 0, Pairs: []Pair{{From: 1, To: 2}, {From: 1, To: 9}}},
				{Edge: 1},
			},
		},
		{
			Kind: KindKNN, Anchor: 42, Visited: 12,
			Candidates: []graph.NodeID{1, 5, 1<<32 - 1},
		},
	}
}

func TestSubtaskWireRoundTrip(t *testing.T) {
	for _, st := range wireSubtasks() {
		data := st.AppendBinary(nil)
		var back Subtask
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("decode %+v: %v", st, err)
		}
		if !reflect.DeepEqual(st, back) {
			t.Fatalf("round trip changed the subtask:\n%+v\n%+v", st, back)
		}
	}
}

func TestPartialWireRoundTrip(t *testing.T) {
	for _, p := range wirePartials() {
		data := p.AppendBinary(nil)
		var back Partial
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("decode %+v: %v", p, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip changed the partial:\n%+v\n%+v", p, back)
		}
	}
}

func TestWireDecodeRejects(t *testing.T) {
	for i, st := range wireSubtasks() {
		data := st.AppendBinary(nil)
		for cut := 0; cut < len(data); cut++ {
			var back Subtask
			if err := back.UnmarshalBinary(data[:cut]); err == nil {
				t.Fatalf("subtask %d: truncation at %d decoded", i, cut)
			}
		}
		var back Subtask
		if err := back.UnmarshalBinary(append(data, 0)); err == nil {
			t.Fatalf("subtask %d: trailing byte decoded", i)
		}
	}
	var back Subtask
	if err := back.UnmarshalBinary([]byte{9}); err == nil {
		t.Fatal("unknown kind decoded")
	}

	for i, p := range wirePartials() {
		pdata := p.AppendBinary(nil)
		for cut := 0; cut < len(pdata); cut++ {
			var pb Partial
			if err := pb.UnmarshalBinary(pdata[:cut]); err == nil {
				t.Fatalf("partial %d: truncation at %d decoded", i, cut)
			}
		}
		var pb Partial
		if err := pb.UnmarshalBinary(append(pdata, 0)); err == nil {
			t.Fatalf("partial %d: trailing byte decoded", i)
		}
	}
}

// FuzzSubtaskWire checks the decoder never panics and that anything it
// accepts re-encodes to an equivalent subtask.
func FuzzSubtaskWire(f *testing.F) {
	for _, st := range wireSubtasks() {
		data := st.AppendBinary(nil)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var st Subtask
		if err := st.UnmarshalBinary(data); err != nil {
			return
		}
		out := st.AppendBinary(nil)
		var back Subtask
		if err := back.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-encoded subtask failed to decode: %v", err)
		}
		if !reflect.DeepEqual(st, back) {
			t.Fatalf("re-encode changed the subtask:\n%+v\n%+v", st, back)
		}
	})
}

// FuzzPartialWire is the Partial counterpart. Beside the hand-built
// partials it starts from a real k-NN ball and a real pattern partial over a
// WebGraph preset, and from both id-range violations.
func FuzzPartialWire(f *testing.F) {
	for _, p := range wirePartials() {
		data := p.AppendBinary(nil)
		f.Add(data)
	}
	f.Add([]byte{})
	knn, pattern := presetPartials(f, 3)
	f.Add(knn[0].AppendBinary(nil))
	f.Add(pattern[0].AppendBinary(nil))
	for _, data := range rangeViolations() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Partial
		if err := p.UnmarshalBinary(data); err != nil {
			return
		}
		out := p.AppendBinary(nil)
		var back Partial
		if err := back.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-encoded partial failed to decode: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("re-encode changed the partial:\n%+v\n%+v", p, back)
		}
	})
}

// TestPartialFlagBits: every partial sets the id-delta bit (4), and the
// decoder refuses one without it — the form a peer from before delta-coded
// ids writes — as well as any bit nobody defined. NoAnchor still shares the
// flags varint: a partial that sets it is as long as one that does not.
func TestPartialFlagBits(t *testing.T) {
	plain := Partial{Kind: KindKNN, Anchor: 42, Visited: 0}
	flagged := plain
	flagged.NoAnchor = true
	a, b := plain.AppendBinary(nil), flagged.AppendBinary(nil)
	if len(a) != len(b) || a[2] != 4 || b[2] != 6 {
		t.Fatalf("plain %x, with NoAnchor %x: want the same length and flags 4 / 6", a, b)
	}
	for _, p := range wirePartials() {
		if data := p.AppendBinary(nil); data[2]&4 == 0 {
			t.Errorf("%+v encodes flags %#x without the id-delta bit", p, data[2])
		}
	}
	var back Partial
	if err := back.UnmarshalBinary(b); err != nil || !reflect.DeepEqual(back, flagged) {
		t.Fatalf("round trip = %+v, %v", back, err)
	}
	// The k-NN partial a build from before delta-coded ids wrote into
	// internal/rpc/testdata/full_response.hex: candidates 4, 9, 2^32-1 as
	// whole uvarints behind flags 0.
	parent := []byte{3, 42, 0, 12, 0, 0, 3, 4, 9, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if err := back.UnmarshalBinary(parent); err == nil {
		t.Errorf("the parent's partial decoded to %+v", back)
	}
	for _, flags := range []byte{0, 1, 2, 3, 8, 12} {
		b[2] = flags
		if err := back.UnmarshalBinary(b); err == nil {
			t.Errorf("flags %#x decoded", flags)
		}
	}
}

// rangeViolations are two k-NN partials whose candidate deltas leave the
// id range: the first steps below 0, the second past 2^32-1 (from the
// largest id, by one).
func rangeViolations() [][]byte {
	head := []byte{byte(KindKNN), 42, 4, 2, 0, 0} // kind, anchor, flags, visited, no rels, no frontier
	below := binary.AppendVarint(append(head[:len(head):len(head)], 1), -1)
	above := append(head[:len(head):len(head)], 2)
	above = binary.AppendVarint(above, 1<<32-1)
	above = binary.AppendVarint(above, 1)
	return [][]byte{below, above}
}

// TestPartialIDRange: a delta that takes an id outside [0, 2^32-1] is
// refused, and lists in any order — not only Run's ascending ones —
// round-trip exactly.
func TestPartialIDRange(t *testing.T) {
	for i, data := range rangeViolations() {
		var back Partial
		if err := back.UnmarshalBinary(data); err == nil {
			t.Errorf("range violation %d (%x) decoded to %+v", i, data, back)
		}
	}
	// The same frame with the last delta one smaller is the largest id.
	ok := rangeViolations()[1]
	ok = binary.AppendVarint(ok[:len(ok)-1], 0)
	var back Partial
	if err := back.UnmarshalBinary(ok); err != nil || !reflect.DeepEqual(back.Candidates, []graph.NodeID{1<<32 - 1, 1<<32 - 1}) {
		t.Fatalf("largest id decoded to %+v, %v", back, err)
	}

	unsorted := Partial{
		Kind: KindPattern, Anchor: 9, Visited: 5,
		Rels:       []EdgeRel{{Edge: 2, Pairs: []Pair{{From: 1<<32 - 1, To: 0}, {From: 3, To: 1<<32 - 1}, {From: 3, To: 2}, {From: 0, To: 7}}}},
		Frontier:   []Boundary{{Node: 40, Hops: 1}, {Node: 2, Hops: 3}, {Node: 1<<32 - 1, Hops: 2}, {Node: 0, Hops: 1}},
		Candidates: []graph.NodeID{77, 5, 1<<32 - 1, 0, 5},
	}
	if err := back.UnmarshalBinary(unsorted.AppendBinary(nil)); err != nil || !reflect.DeepEqual(back, unsorted) {
		t.Fatalf("unsorted partial round-tripped to %+v, %v", back, err)
	}
}

// presetPartials runs the first wave of every KNearest and PatternMatch
// query the benchmark's mix draws over a WebGraph preset at scale 0.05 and
// returns the k-NN and pattern partials, as Run emits them.
func presetPartials(tb testing.TB, seed int64) (knn, pattern []Partial) {
	tb.Helper()
	g, err := gen.Preset(gen.WebGraph, 0.05, seed)
	if err != nil {
		tb.Fatal(err)
	}
	qs := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots: 20, QueriesPerHotspot: 10, R: 2, H: 2,
		Types: query.MixedTypesKNN, Seed: seed,
	})
	fetch := fetchFromGraph(g)
	for _, q := range qs {
		if q.Type != query.KNearest && q.Type != query.PatternMatch {
			continue
		}
		pl, err := NewPlan(q, g.LabelID)
		if err != nil {
			tb.Fatal(err)
		}
		for _, st := range pl.Subtasks {
			p, _, err := Run(st, fetch)
			if err != nil {
				tb.Fatal(err)
			}
			if p.Kind == KindKNN {
				knn = append(knn, p)
			} else {
				pattern = append(pattern, p)
			}
		}
	}
	if len(knn) == 0 || len(pattern) == 0 {
		tb.Fatalf("seed %d: %d k-NN and %d pattern partials", seed, len(knn), len(pattern))
	}
	return knn, pattern
}

// Per-id ceilings of Run's partials on the wire. Every id list is sorted,
// so a k-NN ball's ids cost their gaps: 1.08 B per candidate over
// presetPartials' graphs, heads included (1.99 B while every id was a whole uvarint), and a
// pattern pair's two columns 1.53 B per id (2.36 B). partialHead covers the
// kind, anchor, flags, visited count and list counts; each relation adds
// its edge index and pair count, relHead.
const (
	knnBytesPerID     = 1.25
	patternBytesPerID = 1.75
	partialHead       = 12
	relHead           = 2
)

// TestPartialEncodedSize holds Run's k-NN and pattern partials over a
// generated WebGraph to their per-id ceilings, each partial on its own.
func TestPartialEncodedSize(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		knn, pattern := presetPartials(t, seed)
		for _, c := range []struct {
			name  string
			parts []Partial
			perID float64
		}{{"k-NN", knn, knnBytesPerID}, {"pattern", pattern, patternBytesPerID}} {
			bytes, ids := 0, 0
			for _, p := range c.parts {
				n := len(p.Candidates)
				for _, er := range p.Rels {
					n += 2 * len(er.Pairs)
				}
				size := len(p.AppendBinary(nil))
				head := partialHead + relHead*len(p.Rels)
				if float64(size) > float64(head)+c.perID*float64(n) {
					t.Errorf("seed %d: %s partial at %d carries %d ids in %d B, above %d + %.2f B per id",
						seed, c.name, p.Anchor, n, size, head, c.perID)
				}
				bytes += size
				ids += n
			}
			t.Logf("seed %d: %d %s partials, %.2f B per id, heads included", seed, len(c.parts), c.name, float64(bytes)/float64(ids))
		}
	}
}
