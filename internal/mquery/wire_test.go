package mquery

import (
	"reflect"
	"testing"

	"repro/internal/graph"
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

// FuzzPartialWire is the Partial counterpart.
func FuzzPartialWire(f *testing.F) {
	for _, p := range wirePartials() {
		data := p.AppendBinary(nil)
		f.Add(data)
	}
	f.Add([]byte{})
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

// TestPartialFlagBits: NoAnchor shares Found's varint — a partial that sets
// it is as long as one that does not, and one that does not is byte for byte
// what it was before the bit existed — and bits nobody defined are refused.
func TestPartialFlagBits(t *testing.T) {
	plain := Partial{Kind: KindKNN, Anchor: 42, Visited: 0}
	flagged := plain
	flagged.NoAnchor = true
	a, b := plain.AppendBinary(nil), flagged.AppendBinary(nil)
	if len(a) != len(b) || a[2] != 0 || b[2] != 2 {
		t.Fatalf("plain %x, with NoAnchor %x: want the same length and flags 0 / 2", a, b)
	}
	var back Partial
	if err := back.UnmarshalBinary(b); err != nil || !reflect.DeepEqual(back, flagged) {
		t.Fatalf("round trip = %+v, %v", back, err)
	}
	b[2] = 4
	if err := back.UnmarshalBinary(b); err == nil {
		t.Fatal("an undefined flag bit decoded")
	}
}
