package gstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/kvstore"
)

// TestOutPrefixCutsWhatDecodeReads: every record of both parent fixtures
// (WebGraph's unlabelled, Freebase's labelled, edgeless ones among them)
// cuts to an out-prefix that DecodeOutInto reads to the label and out-list
// Decode reads from the whole record, that IsPrefix tells from the whole,
// that Decode refuses, and that Project ships for graph.Out only.
func TestOutPrefixCutsWhatDecodeReads(t *testing.T) {
	for _, fx := range parentFixtures {
		recs, _ := readFixture(t, fx.file, fx.ds, fx.scale)
		for _, sr := range recs {
			whole, err := Decode(sr.node, sr.raw)
			if err != nil {
				t.Fatal(err)
			}
			n, err := OutPrefix(sr.raw)
			if err != nil || n >= len(sr.raw) {
				t.Fatalf("%s: record %d (%d B) cut at %d: %v", fx.file, sr.node, len(sr.raw), n, err)
			}
			prefix := sr.raw[:n]
			r, arena, err := DecodeOutInto(sr.node, prefix, make([]graph.Edge, 0, max(n-2, 0)))
			if err != nil || r.NodeLabel != whole.NodeLabel || !slices.Equal(r.Out, whole.Out) || r.In != nil || len(arena) != len(whole.Out) {
				t.Fatalf("%s: prefix of %d decodes to %+v, %v; want the label and out-list of %+v", fx.file, sr.node, r, err, whole)
			}
			if !IsPrefix(prefix) || IsPrefix(sr.raw) {
				t.Fatalf("%s: record %d: IsPrefix %v on its prefix, %v on itself", fx.file, sr.node, IsPrefix(prefix), IsPrefix(sr.raw))
			}
			if _, err := Decode(sr.node, prefix); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: the prefix of %d decodes as a whole record: %v", fx.file, sr.node, err)
			}
			if !bytes.Equal(Project(sr.raw, graph.Out), prefix) || !bytes.Equal(Project(sr.raw, graph.In), sr.raw) || !bytes.Equal(Project(sr.raw, graph.Both), sr.raw) {
				t.Fatalf("%s: record %d projects wrongly", fx.file, sr.node)
			}
		}
	}
}

// TestOutPrefixRefusesWhatDecodeRefuses: a value Decode refuses anywhere —
// in its head, its out-list, its in-list or after it — OutPrefix refuses
// too, and Project ships it whole, so the reader's strict decode refuses it
// in turn; DecodeOutInto refuses a malformed head or out-list, and reads
// no further. IsPrefix never takes a malformed head for a prefix.
func TestOutPrefixRefusesWhatDecodeRefuses(t *testing.T) {
	_, tagged := taggedRecord() // labelled out-list, unlabelled in-list
	maxID := binary.AppendUvarint(nil, uint64(^graph.NodeID(0)))
	for _, tc := range []struct {
		name  string
		val   []byte
		outOK bool // the head and out-list are intact
	}{
		{"empty", nil, false},
		{"head past every layout", binary.AppendUvarint(nil, headLimit), false},
		{"no out-list", []byte{7}, false},
		{"out count past the bytes", []byte{7, 5, 1, 0}, false},
		{"out delta cut short", []byte{7, 1, 0x80}, false},
		{"out label cut short", []byte{7, 1, 1, 0x80}, false},
		{"out label past a Label", append([]byte{7, 1, 1}, binary.AppendUvarint(nil, 1<<16)...), false},
		{"out ids past a NodeID", append(append(append(append([]byte{7, 2}, maxID...), 0), 1), 0), false},
		{"no in-list", tagged[:8], true},
		{"in-list cut short", tagged[:len(tagged)-1], true},
		{"trailing bytes", append(slices.Clone(tagged), 0), true},
	} {
		if _, err := Decode(1, tc.val); err == nil {
			t.Fatalf("%s: %x decodes", tc.name, tc.val)
		}
		if n, err := OutPrefix(tc.val); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: OutPrefix(%x) = %d, %v; want it refused", tc.name, tc.val, n, err)
		}
		if got := Project(tc.val, graph.Out); !bytes.Equal(got, tc.val) {
			t.Fatalf("%s: projects to %x, want it whole", tc.name, got)
		}
		if r, _, err := DecodeOutInto(1, tc.val, nil); (err == nil) != tc.outOK {
			t.Fatalf("%s: DecodeOutInto(%x) = %+v, %v", tc.name, tc.val, r, err)
		}
	}
	if IsPrefix(nil) || IsPrefix(binary.AppendUvarint(nil, headLimit)) || IsPrefix([]byte{7}) || IsPrefix([]byte{7, 5, 1}) {
		t.Fatal("IsPrefix took a malformed value for a prefix")
	}
}

// TestEditValueKeepsTheForm: an edit stream applied to a whole record is
// Encode of ApplyEdits; applied to an out-prefix it takes the label and
// out-edge edits, skips the in-edge ones and stays a prefix, of the edited
// record's label and out-list. (Its head may be shorter than that of the
// prefix storage ships: with no in-list to go by, it is the head of a
// record without in-edges.) A stream that does not apply is an error either
// way.
func TestEditValueKeepsTheForm(t *testing.T) {
	pre, enc := taggedRecord()
	post := *pre
	post.NodeLabel = 8
	post.Out = []graph.Edge{{To: 2, Label: 3}, {To: 4}, {To: 9}}
	post.In = []graph.Edge{{To: 300}}
	edits := AppendEdits(nil, pre, &post)
	want := Encode(nil, &post)

	got, err := EditValue(pre.Node, enc, edits)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("edited record %x, %v; want %x", got, err, want)
	}
	got, err = EditValue(pre.Node, Project(enc, graph.Out), edits)
	if err != nil || !IsPrefix(got) {
		t.Fatalf("edited prefix %x, %v; want a prefix", got, err)
	}
	if r, _, err := DecodeOutInto(pre.Node, got, nil); err != nil || r.NodeLabel != post.NodeLabel || !slices.Equal(r.Out, post.Out) {
		t.Fatalf("edited prefix decodes to %+v, %v; want the label and out-list of %+v", r, err, post)
	}
	for _, val := range [][]byte{enc, Project(enc, graph.Out)} {
		if _, err := EditValue(pre.Node, val, []byte{1, 9}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("an edit with tag 9 applied to %x: %v", val, err)
		}
		if _, err := EditValue(pre.Node, val, []byte{1, editIn, 1}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a cut in-edge edit applied to %x: %v", val, err)
		}
	}
}

// TestReadBatchIntoProjects: an out-only batched read hands back each
// record's out-prefix and reports the bytes it shipped — the prefixes' —
// to the billing hook; any other direction reads what the store holds.
func TestReadBatchIntoProjects(t *testing.T) {
	tier, _ := newLoadedTier(t)
	ids := []graph.NodeID{5, 99999, 0, 250}
	for _, dir := range []graph.Direction{graph.Out, graph.Both} {
		dst := make([][]byte, len(ids))
		var billed int64
		if err := tier.ReadBatchInto(ids, dir, dst, func(_ kvstore.Batch, n int64) { billed += n }); err != nil {
			t.Fatal(err)
		}
		var want int64
		for i, id := range ids {
			stored, ok := tier.Store().Get(uint64(id))
			if ok {
				stored = Project(stored, dir)
				want += int64(len(stored))
			}
			if !bytes.Equal(dst[i], stored) || (dst[i] == nil) != !ok {
				t.Fatalf("%v: id %d read %x, want %x", dir, id, dst[i], stored)
			}
		}
		if billed != want {
			t.Fatalf("%v: billed %d B, shipped %d", dir, billed, want)
		}
	}
}
