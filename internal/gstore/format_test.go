package gstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// parentFixtures are records the codec wrote before edge lists without
// labels stopped storing a zero label per edge, each file the graph gen
// builds for the dataset at the scale (seed 1), every live node's record in
// id order, each [uvarint node][uvarint length][bytes]. WebGraph labels no
// edge; Freebase labels every edge.
var parentFixtures = []struct {
	file  string
	ds    gen.Dataset
	scale float64
}{
	{"parent-webgraph.rec", gen.WebGraph, 0.005},
	{"parent-freebase.rec", gen.Freebase, 0.05},
}

// storedRecord is one record of a fixture.
type storedRecord struct {
	node graph.NodeID
	raw  []byte
}

// readFixture returns a fixture's records and the graph they were encoded
// from.
func readFixture(t *testing.T, file string, ds gen.Dataset, scale float64) ([]storedRecord, *graph.Graph) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Preset(ds, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	var recs []storedRecord
	for len(data) > 0 {
		node, n := binary.Uvarint(data)
		size, m := binary.Uvarint(data[n:])
		if n <= 0 || m <= 0 || uint64(len(data)-n-m) < size {
			t.Fatalf("%s: malformed after %d records", file, len(recs))
		}
		data = data[n+m:]
		recs = append(recs, storedRecord{graph.NodeID(node), data[:size]})
		data = data[size:]
	}
	if len(recs) != g.NumNodes() {
		t.Fatalf("%s holds %d records, the graph %d nodes", file, len(recs), g.NumNodes())
	}
	return recs, g
}

// sortedRecord is r with both edge lists in Decode's order.
func sortedRecord(r *Record) Record {
	return Record{Node: r.Node, NodeLabel: r.NodeLabel, Out: sortEdges(r.Out), In: sortEdges(r.In)}
}

// head is the uvarint a stored record opens with.
func head(raw []byte) uint64 {
	h, _ := binary.Uvarint(raw)
	return h
}

// TestParentRecordsDecode: every record of both parent fixtures decodes to
// its node's record in the graph it was written from. A record whose lists
// are all labelled or empty — every Freebase record, and every edgeless
// one — still encodes byte for byte as the parent did; every other record
// (every WebGraph record with an edge) opens with a tagged head above
// 0xFFFF, which the parent's decoder refuses as a node label, and is
// smaller than the parent's.
func TestParentRecordsDecode(t *testing.T) {
	for _, fx := range parentFixtures {
		t.Run(string(fx.ds), func(t *testing.T) {
			recs, g := readFixture(t, fx.file, fx.ds, fx.scale)
			var same, tagged, parentSize, size int
			for _, sr := range recs {
				want := sortedRecord(RecordOf(g, sr.node))
				got, err := Decode(sr.node, sr.raw)
				if err != nil || !reflect.DeepEqual(sortedRecord(&got), want) {
					t.Fatalf("node %d: parent bytes decode to %+v, %v; want %+v", sr.node, got, err, want)
				}
				enc := Encode(nil, &want)
				parentSize, size = parentSize+len(sr.raw), size+len(enc)
				outLabelled, _ := shape(want.Out)
				inLabelled, _ := shape(want.In)
				if (len(want.Out) == 0 || outLabelled) && (len(want.In) == 0 || inLabelled) {
					if !bytes.Equal(enc, sr.raw) {
						t.Fatalf("node %d: labelled record encodes as %x, the parent wrote %x", sr.node, enc, sr.raw)
					}
					same++
					continue
				}
				if h := head(enc); h <= 0xFFFF || len(enc) >= len(sr.raw) {
					t.Fatalf("node %d: record encodes %d bytes under head %#x; the parent wrote %d", sr.node, len(enc), h, len(sr.raw))
				}
				tagged++
			}
			t.Logf("%d records: %d byte-identical, %d tagged; %d bytes, the parent's %d", len(recs), same, tagged, size, parentSize)
			switch fx.ds {
			case gen.Freebase:
				if tagged != 0 {
					t.Errorf("%d Freebase records tagged, want none", tagged)
				}
			case gen.WebGraph:
				if tagged == 0 {
					t.Error("no WebGraph record tagged")
				}
			}
		})
	}
}

// taggedRecord returns a record with labelled out-edges and unlabelled
// in-edges, and its encoding.
func taggedRecord() (*Record, []byte) {
	r := &Record{Node: 4, NodeLabel: 7, Out: []graph.Edge{{To: 2, Label: 3}, {To: 9}}, In: []graph.Edge{{To: 1}, {To: 300}}}
	return r, Encode(nil, r)
}

// TestTaggedHead pins the tagged layout: head 1<<16 | 1<<17 | label for
// labelled out-edges and unlabelled in-edges, three bytes, then the out
// list with labels and the in list without.
func TestTaggedHead(t *testing.T) {
	_, enc := taggedRecord()
	want := []byte{
		0x87, 0x80, 0x0c, // head 0x30007
		2, 2, 3, 7, 0, // out: count 2, (delta 2, label 3), (delta 7, label 0)
		2, 1, 0xab, 0x02, // in: count 2, delta 1, delta 299
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoded %x, want %x", enc, want)
	}
}

// TestHeadAtOrAboveLimitIsCorrupt: a head of 1<<19 or more names a layout
// this build does not know, and the record is ErrCorrupt however the rest
// would read.
func TestHeadAtOrAboveLimitIsCorrupt(t *testing.T) {
	_, enc := taggedRecord()
	_, n := binary.Uvarint(enc)
	for _, h := range []uint64{1 << 19, 1<<19 | 1<<16 | 7, 1 << 20, 1 << 40} {
		raw := append(binary.AppendUvarint(nil, h), enc[n:]...)
		if _, err := Decode(4, raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("head %#x: err = %v, want ErrCorrupt", h, err)
		}
	}
	if _, err := Decode(4, enc); err != nil {
		t.Fatalf("the record itself: %v", err)
	}
}

// TestUnlabelledCountGuard: an unlabelled list's edges take a byte each at
// least, so a count above its remaining bytes is refused before anything is
// allocated, and a count equal to them decodes.
func TestUnlabelledCountGuard(t *testing.T) {
	h := binary.AppendUvarint(nil, 1<<16) // both lists unlabelled
	ok := append(append(bytes.Clone(h), 0, 3), 1, 1, 1)
	if r, err := Decode(1, ok); err != nil || len(r.In) != 3 || r.In[2].To != 3 {
		t.Fatalf("three one-byte deltas: %+v, %v", r, err)
	}
	for _, raw := range [][]byte{
		append(append(bytes.Clone(h), 0, 4), 1, 1, 1),               // count 4, three bytes
		append(bytes.Clone(h), binary.AppendUvarint(nil, 1<<40)...), // out count 2^40, no data
	} {
		if _, err := Decode(1, raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%x: err = %v, want ErrCorrupt", raw, err)
		}
	}
}

// FuzzRecordDecode: any bytes either fail to decode or decode to a record
// that round-trips through Encode — Decode of its encoding is the record
// with its lists in Decode's order — and whose encoding is a fixed point.
// Seeded with both layouts.
func FuzzRecordDecode(f *testing.F) {
	for _, seed := range recordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(6, data)
		if err != nil {
			return
		}
		enc := Encode(nil, &r)
		again, err := Decode(6, enc)
		if err != nil {
			t.Fatalf("%x decodes to %+v, whose encoding %x does not decode: %v", data, r, enc, err)
		}
		if want := sortedRecord(&r); !reflect.DeepEqual(again, want) {
			t.Fatalf("%x decodes to %+v, which round-trips to %+v", data, r, again)
		}
		if enc2 := Encode(nil, &again); !bytes.Equal(enc2, enc) {
			t.Fatalf("encoding is not a fixed point: %x then %x", enc, enc2)
		}
	})
}

// recordSeeds are FuzzRecordDecode's and FuzzRecordPrefix's seeds: stored
// records in either layout.
func recordSeeds() [][]byte {
	_, tagged := taggedRecord()
	return [][]byte{
		tagged,
		Encode(nil, &Record{NodeLabel: 2, Out: []graph.Edge{{To: 5, Label: 1}}, In: []graph.Edge{{To: 3, Label: 2}}}),
		Encode(nil, &Record{Out: []graph.Edge{{To: 1}, {To: 1}, {To: 1 << 20}}}),
		Encode(nil, &Record{NodeLabel: 9}),
		append(binary.AppendUvarint(nil, 1<<16|1<<17|1<<18), 1, 0, 5, 0), // tagged, both flags set
	}
}

// FuzzRecordPrefix: for any bytes, OutPrefix either refuses the value —
// exactly when Decode does — or returns an n where val[:n] is an
// out-prefix: IsPrefix says so, DecodeOutInto reads it to the same label
// and out-list Decode reads from the whole value, Decode refuses it (a
// prefix is never taken for a whole record), and Project cuts there.
func FuzzRecordPrefix(f *testing.F) {
	for _, seed := range recordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, val []byte) {
		whole, decErr := Decode(6, val)
		n, err := OutPrefix(val)
		if (err == nil) != (decErr == nil) {
			t.Fatalf("%x: OutPrefix %d, %v; Decode %v", val, n, err, decErr)
		}
		if err != nil {
			if got := Project(val, graph.Out); !bytes.Equal(got, val) {
				t.Fatalf("%x: a refused value projects to %x, not whole", val, got)
			}
			return
		}
		prefix := val[:n]
		if !IsPrefix(prefix) || IsPrefix(val) {
			t.Fatalf("%x cut at %d: IsPrefix %v on the prefix, %v on the whole value", val, n, IsPrefix(prefix), IsPrefix(val))
		}
		r, _, err := DecodeOutInto(6, prefix, nil)
		if err != nil {
			t.Fatalf("%x: its prefix %x does not decode: %v", val, prefix, err)
		}
		if r.NodeLabel != whole.NodeLabel || !slices.Equal(r.Out, whole.Out) || r.In != nil {
			t.Fatalf("%x: prefix decodes to %+v, the whole value to %+v", val, r, whole)
		}
		if _, err := Decode(6, prefix); err == nil {
			t.Fatalf("%x: its prefix %x decodes as a whole record", val, prefix)
		}
		if got := Project(val, graph.Out); !bytes.Equal(got, prefix) || !bytes.Equal(Project(val, graph.Both), val) {
			t.Fatalf("%x: projects to %x out, %x both", val, got, Project(val, graph.Both))
		}
	})
}
