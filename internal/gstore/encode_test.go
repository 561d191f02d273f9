package gstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// referenceEncode is Encode as it was before it sorted packed keys: each
// list copied and sorted by (To, Label) with a comparator, then written.
// Kept as the oracle of the layout's bytes.
func referenceEncode(buf []byte, r *Record) []byte {
	hasLabel := func(es []graph.Edge) bool {
		for _, e := range es {
			if e.Label != graph.NoLabel {
				return true
			}
		}
		return false
	}
	out, in := hasLabel(r.Out), hasLabel(r.In)
	head := uint64(r.NodeLabel)
	if (!out && len(r.Out) > 0) || (!in && len(r.In) > 0) {
		head |= headTagged
		if out {
			head |= headOutLabelled
		}
		if in {
			head |= headInLabelled
		}
	}
	buf = binary.AppendUvarint(buf, head)
	for _, list := range []struct {
		es         []graph.Edge
		withLabels bool
	}{{r.Out, out}, {r.In, in}} {
		buf = binary.AppendUvarint(buf, uint64(len(list.es)))
		prev := uint64(0)
		for _, e := range sortEdges(list.es) {
			buf = binary.AppendUvarint(buf, uint64(e.To)-prev)
			prev = uint64(e.To)
			if list.withLabels {
				buf = binary.AppendUvarint(buf, uint64(e.Label))
			}
		}
	}
	return buf
}

// randomEdges returns n edges over a few targets and labels, so parallel
// edges and exact duplicates are common; labelled is the chance an edge
// carries a label. Ids and labels reach the top of their ranges.
func randomEdges(rng *rand.Rand, n int, labelled float64) []graph.Edge {
	targets := 1 + rng.Intn(2*n+1)
	es := make([]graph.Edge, n)
	for i := range es {
		to := graph.NodeID(rng.Intn(targets))
		if rng.Intn(8) == 0 {
			to = ^graph.NodeID(0) - graph.NodeID(rng.Intn(3))
		}
		es[i].To = to
		if rng.Float64() < labelled {
			es[i].Label = graph.Label(1 + rng.Intn(3))
			if rng.Intn(8) == 0 {
				es[i].Label = ^graph.Label(0)
			}
		}
	}
	return es
}

// TestEncodeMatchesReference holds Encode to the sort-a-copy encoder byte
// for byte on random labelled multigraph records: unlabelled, labelled and
// mixed lists, in order, reversed and shuffled, from empty to eight times
// the stack buffer, and checks Encode leaves its record untouched.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 12, stackKeys - 1, stackKeys, stackKeys + 1, 8 * stackKeys}
	for i := 0; i < 2000; i++ {
		r := &Record{Node: graph.NodeID(i), NodeLabel: graph.Label(rng.Intn(3))}
		for _, l := range []*[]graph.Edge{&r.Out, &r.In} {
			n := sizes[rng.Intn(len(sizes))]
			if rng.Intn(2) == 0 {
				n = rng.Intn(40)
			}
			*l = randomEdges(rng, n, []float64{0, 0.5, 1}[rng.Intn(3)])
			switch rng.Intn(3) {
			case 0:
				*l = sortEdges(*l)
			case 1:
				s := sortEdges(*l)
				for a, b := 0, len(s)-1; a < b; a, b = a+1, b-1 {
					s[a], s[b] = s[b], s[a]
				}
				*l = s
			}
		}
		out, in := slices.Clone(r.Out), slices.Clone(r.In)
		want := referenceEncode([]byte{0xAA}, r)
		if got := Encode([]byte{0xAA}, r); !bytes.Equal(got, want) {
			t.Fatalf("record %d (%d out, %d in): Encode wrote %x, the reference %x", i, len(r.Out), len(r.In), got, want)
		}
		if !slices.Equal(out, r.Out) || !slices.Equal(in, r.In) {
			t.Fatalf("record %d: Encode modified its record", i)
		}
	}
}

// TestEncodeAllocatesNothing: an unsorted 12-edge record — a generated
// node's out-list — encoded into a buffer that fits it allocates nothing.
// (A list longer than the stack buffer borrows a pooled one, which the
// race detector's pool drops at random, so it is not counted here.)
func TestEncodeAllocatesNothing(t *testing.T) {
	r := &Record{Node: 1, Out: randomEdges(rand.New(rand.NewSource(2)), 12, 0)}
	r.In = sortEdges(r.Out)
	if _, ordered := shape(r.Out); ordered {
		t.Fatal("the 12-edge out-list came out sorted: the case is not exercised")
	}
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() { buf = Encode(buf[:0], r) }); allocs != 0 {
		t.Errorf("encoding a 12-edge unsorted record: %.1f allocations, want 0", allocs)
	}
}
