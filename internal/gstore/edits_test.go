package gstore

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/xrand"
)

// randomRecord builds a decoded record over a handful of node ids and
// labels, so neighbours collide: some edges appear twice (a duplicate, at
// most twice — the depth the suffix property is stated for) and some
// targets under two labels (parallel-labelled edges).
func randomRecord(rng *xrand.Source, node graph.NodeID) Record {
	edges := func() []graph.Edge {
		var es []graph.Edge
		held := map[graph.Edge]int{}
		for range rng.Intn(8) {
			e := graph.Edge{To: graph.NodeID(rng.Intn(6)), Label: graph.Label(rng.Intn(3))}
			for range 1 + rng.Intn(2) {
				if held[e] < 2 {
					es = append(es, e)
					held[e]++
				}
			}
		}
		return es
	}
	r := Record{Node: node, NodeLabel: graph.Label(rng.Intn(3)), Out: edges(), In: edges()}
	return canonical(&r)
}

// canonical is Decode(Encode(r)): the form a cache holds.
func canonical(r *Record) Record {
	out, err := Decode(r.Node, Encode(nil, r))
	if err != nil {
		panic(err)
	}
	return out
}

// randomMutation is one gstore.Apply call on u and v: an upsert of u, or an
// add or remove of u->v under a random label.
func randomMutation(rng *xrand.Source, u, v *Record) (writeU, writeV bool) {
	op := []query.MutOp{query.MutUpsertNode, query.MutAddEdge, query.MutRemoveEdge}[rng.Intn(3)]
	writeU, writeV, err := Apply(op, graph.Label(rng.Intn(3)), u, v, true, true)
	if err != nil {
		return false, false
	}
	return writeU, writeV
}

// TestEditsProperty: over random records and every mutation op, the edits
// AppendEdits computes turn the pre-image into exactly what Decode makes of
// the post-image, re-applying them changes nothing, and any suffix of one
// key's edit stream, applied in order to any state at or after the suffix's
// first pre-image, yields the latest record.
func TestEditsProperty(t *testing.T) {
	rng := xrand.New(40)
	for trial := range 3000 {
		u := randomRecord(rng, graph.NodeID(rng.Intn(6)))
		vNode := graph.NodeID(rng.Intn(6))
		if len(u.Out) > 0 && rng.Intn(2) == 0 {
			vNode = u.Out[rng.Intn(len(u.Out))].To // so removes hit
		}
		v := randomRecord(rng, vNode)
		states := [][2]Record{{u, v}}
		streams := [2][][]byte{}
		firstPre := [2][]int{} // firstPre[k][i]: the state index stream k's i-th edit was built against
		for step := range 3 {
			preU, preV := u, v
			wu, wv := randomMutation(rng, &u, &v)
			for k, w := range []struct {
				wrote     bool
				pre, post *Record
			}{{wu, &preU, &u}, {wv, &preV, &v}} {
				if !w.wrote {
					continue
				}
				edits := AppendEdits(nil, w.pre, w.post)
				want := canonical(w.post)
				got, err := ApplyEdits(*w.pre, edits)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: ApplyEdits(%+v, % x) = %+v, %v; want %+v", trial, *w.pre, edits, got, err, want)
				}
				again, err := ApplyEdits(got, edits)
				if err != nil || !reflect.DeepEqual(again, want) {
					t.Fatalf("trial %d: edits applied twice = %+v, %v; want %+v", trial, again, err, want)
				}
				streams[k] = append(streams[k], edits)
				firstPre[k] = append(firstPre[k], step)
				*w.post = want
			}
			states = append(states, [2]Record{u, v})
		}
		for k := range streams {
			latest := states[len(states)-1][k]
			for from := range streams[k] {
				for s := firstPre[k][from]; s < len(states); s++ {
					rec := states[s][k]
					for _, edits := range streams[k][from:] {
						var err error
						if rec, err = ApplyEdits(rec, edits); err != nil {
							t.Fatalf("trial %d: key %d, suffix from %d on state %d: %v", trial, k, from, s, err)
						}
					}
					if !reflect.DeepEqual(rec, latest) {
						t.Fatalf("trial %d: key %d, suffix from %d on state %d = %+v, want %+v", trial, k, from, s, rec, latest)
					}
				}
			}
		}
	}
}

// TestEditsShape pins the wire form: an unchanged record is the lone count
// byte, and an edge toggle is one six-byte edit behind it.
func TestEditsShape(t *testing.T) {
	pre := Record{Node: 1, NodeLabel: 2, Out: []graph.Edge{{To: 9, Label: 1}}}
	if got := AppendEdits(nil, &pre, &pre); !bytes.Equal(got, []byte{0}) {
		t.Fatalf("no-op edits = % x, want 00", got)
	}
	post := pre
	post.Out = append(post.Out[:1:1], graph.Edge{To: 300000, Label: 4})
	got := AppendEdits([]byte{0xff}, &pre, &post)
	want := append([]byte{0xff, 1, editOut}, binary.AppendUvarint(nil, 300000)...)
	want = append(want, 4, 1)
	if !bytes.Equal(got, want) || len(got)-2 != 6 {
		t.Fatalf("edge toggle = % x, want % x", got, want)
	}
	rec, err := ApplyEdits(pre, got[1:])
	if err != nil || !reflect.DeepEqual(rec, canonical(&post)) {
		t.Fatalf("ApplyEdits = %+v, %v", rec, err)
	}
}

// TestApplyEditsRejects: every malformed stream is an error, never a record.
func TestApplyEditsRejects(t *testing.T) {
	r := Record{Node: 1, Out: []graph.Edge{{To: 2, Label: 0}}}
	for name, edits := range map[string][]byte{
		"empty":          nil,
		"count too big":  {5, editLabel, 1},
		"short":          {2, editLabel, 1, editOut},
		"bad tag":        {1, 7, 1},
		"label overflow": {1, editLabel, 0xff, 0xff, 0x7f},
		"to overflow":    {1, editOut, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 1},
		"count over":     {1, editOut, 2, 0, 3},
		"count unheld":   {1, editIn, 2, 0, 2},
		"trailing":       {1, editLabel, 1, 0},
		"edge truncated": {1, editOut, 2, 0x80},
	} {
		if _, err := ApplyEdits(r, edits); err == nil {
			t.Errorf("%s: % x applied", name, edits)
		}
	}
}

// FuzzRecordEdits: arbitrary bytes through Decode and ApplyEdits never
// panic, and an applied stream allocates no more than the resident edges
// plus one per edit, returns them in Decode's order and round-trips the
// codec.
func FuzzRecordEdits(f *testing.F) {
	pre := Record{Node: 3, NodeLabel: 1, Out: []graph.Edge{{To: 2}, {To: 2}, {To: 5, Label: 1}}, In: []graph.Edge{{To: 9}}}
	post := Record{Node: 3, NodeLabel: 2, Out: []graph.Edge{{To: 2}, {To: 7, Label: 1}}}
	f.Add(Encode(nil, &pre), AppendEdits(nil, &pre, &post))
	f.Add(Encode(nil, &post), []byte{0})
	f.Add([]byte{}, []byte{1, editLabel, 4})
	f.Fuzz(func(t *testing.T, stored, edits []byte) {
		r, err := Decode(3, stored)
		if err != nil {
			return
		}
		got, err := ApplyEdits(r, edits)
		if err != nil {
			return
		}
		if n := len(got.Out) + len(got.In); n > len(r.Out)+len(r.In)+len(edits) {
			t.Fatalf("%d edges from %d resident and %d edit bytes", n, len(r.Out)+len(r.In), len(edits))
		}
		if again := canonical(&got); !reflect.DeepEqual(again, got) {
			t.Fatalf("applied record %+v is not in Decode's form %+v", got, again)
		}
	})
}

// ApplyEdits is applyEdits on a whole record, the edit streams' oracle.
func ApplyEdits(r Record, edits []byte) (Record, error) { return applyEdits(r, edits, true) }
