package gstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// An edit stream is what a mutation ships to the processors that may cache
// the records it rewrote: not the rewritten record, but the blind writes
// that turn its pre-image into it. Encoded, it is a uvarint count followed by
// that many edits, each opened by a tag byte:
//
//	editLabel  [uvarint label]                          set the node label
//	editOut    [uvarint to][uvarint label][uvarint n]   set the multiplicity
//	editIn     [uvarint to][uvarint label][uvarint n]   of one edge to n
//
// Every edit sets a value outright, whatever it was before, so re-applying
// one changes nothing, and applying, in order, any suffix of one key's
// edit stream to any state of the record at or after that suffix's first
// pre-image yields the latest record — for edges a record holds at most
// twice, which is all a mutation stream of adds and removes needs; a deeper
// stack can trip applyEdits' count bound, which is an error, never a wrong
// record. A typical edge toggle is one edit of about six bytes per endpoint.
const (
	editLabel byte = iota
	editOut
	editIn
)

// AppendEdits appends to buf the edit stream that turns pre into post: the
// node label when it changed, and for every (direction, to, label) whose
// multiplicity differs between the two records, that edge's count in post.
// Neither record is modified; their edge lists need not be sorted.
func AppendEdits(buf []byte, pre, post *Record) []byte {
	var scratch [32]byte
	body, n := scratch[:0], 0
	if pre.NodeLabel != post.NodeLabel {
		body = append(body, editLabel)
		body = binary.AppendUvarint(body, uint64(post.NodeLabel))
		n++
	}
	body, n = appendEdgeEdits(body, n, editOut, pre.Out, post.Out)
	body, n = appendEdgeEdits(body, n, editIn, pre.In, post.In)
	buf = binary.AppendUvarint(buf, uint64(n))
	return append(buf, body...)
}

// appendEdgeEdits walks the two lists in (To, Label) order, one run of equal
// edges at a time, and emits an edit wherever the runs' lengths differ.
func appendEdgeEdits(buf []byte, n int, tag byte, pre, post []graph.Edge) ([]byte, int) {
	a, b := sorted(pre), sorted(post)
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var e graph.Edge
		if j == len(b) || (i < len(a) && cmpEdge(a[i], b[j]) < 0) {
			e = a[i]
		} else {
			e = b[j]
		}
		had, has := 0, 0
		for ; i < len(a) && a[i] == e; i++ {
			had++
		}
		for ; j < len(b) && b[j] == e; j++ {
			has++
		}
		if had != has {
			buf = append(buf, tag)
			buf = binary.AppendUvarint(buf, uint64(e.To))
			buf = binary.AppendUvarint(buf, uint64(e.Label))
			buf = binary.AppendUvarint(buf, uint64(has))
			n++
		}
	}
	return buf, n
}

// cmpEdge is Decode's edge order: by To, then Label.
func cmpEdge(x, y graph.Edge) int {
	return cmp.Or(cmp.Compare(x.To, y.To), cmp.Compare(x.Label, y.Label))
}

// sorted returns es in Decode's order: es itself when it already is, as a
// decoded record's lists are, and a sorted copy otherwise.
func sorted(es []graph.Edge) []graph.Edge {
	if slices.IsSortedFunc(es, cmpEdge) {
		return es
	}
	return graph.SortedEdges(es)
}

// edgeCount is one decoded edge edit: e's multiplicity becomes count; had is
// how many times the record being edited holds e.
type edgeCount struct {
	e          graph.Edge
	count, had int
}

// EditValue returns val — a whole record or an out-prefix, as a processor
// caches it, already known to decode — with the edit stream applied, in
// the same form, copied out of Encode's buffer so it holds none of that
// buffer's spare capacity: a whole record takes every edit, an out-prefix
// the label and out-edge edits, its in-edge edits checked and skipped.
func EditValue(node graph.NodeID, val, edits []byte) ([]byte, error) {
	prefix := IsPrefix(val)
	var r Record
	var err error
	if prefix {
		r, _, err = DecodeOutInto(node, val, nil)
	} else {
		r, err = Decode(node, val)
	}
	if err == nil {
		r, err = applyEdits(r, edits, !prefix)
	}
	if err != nil {
		return nil, err
	}
	enc := Encode(nil, &r)
	if prefix {
		enc = enc[:len(enc)-1] // r.In is empty: its list is one count byte
	}
	return slices.Clone(enc), nil
}

// applyEdits returns r with the edit stream applied. The result equals
// Decode(Encode(post)) for the post the stream was built from: edges in
// Decode's (To, Label) order, both lists in one fresh backing array — r's
// arrays are never written, since readers may hold them without a lock.
// Any malformed byte is an error, and so is an edge count above r's own
// count of that edge plus one, which bounds what the result allocates at
// r's edges plus one per edit. Without in, r is an out-prefix, whose
// in-edge edits are checked but not applied.
func applyEdits(r Record, edits []byte, in bool) (Record, error) {
	n, k := binary.Uvarint(edits)
	// Every edit takes at least two bytes, so a count past half the
	// remaining bytes cannot decode.
	if k <= 0 || n > uint64(len(edits)-k)/2 {
		return r, fmt.Errorf("%w: edit count", ErrCorrupt)
	}
	d := edits[k:]
	label := r.NodeLabel
	var outs, ins []edgeCount
	for ; n > 0; n-- {
		if len(d) == 0 {
			return r, fmt.Errorf("%w: edit stream ends early", ErrCorrupt)
		}
		tag := d[0]
		d = d[1:]
		if tag == editLabel {
			v, k := binary.Uvarint(d)
			if k <= 0 || v > uint64(^graph.Label(0)) {
				return r, fmt.Errorf("%w: label edit", ErrCorrupt)
			}
			label, d = graph.Label(v), d[k:]
			continue
		}
		var list *[]edgeCount
		var resident []graph.Edge
		switch tag {
		case editOut:
			list, resident = &outs, r.Out
		case editIn:
			list, resident = &ins, r.In
		default:
			return r, fmt.Errorf("%w: edit tag %d", ErrCorrupt, tag)
		}
		var f [3]uint64
		for i := range f {
			v, k := binary.Uvarint(d)
			if k <= 0 {
				return r, fmt.Errorf("%w: edge edit", ErrCorrupt)
			}
			f[i], d = v, d[k:]
		}
		if f[0] > uint64(^graph.NodeID(0)) || f[1] > uint64(^graph.Label(0)) {
			return r, fmt.Errorf("%w: edge edit", ErrCorrupt)
		}
		if tag == editIn && !in {
			continue
		}
		ec := edgeCount{e: graph.Edge{To: graph.NodeID(f[0]), Label: graph.Label(f[1])}}
		for _, e := range resident {
			if e == ec.e {
				ec.had++
			}
		}
		if f[2] > uint64(ec.had)+1 {
			return r, fmt.Errorf("%w: edge count %d over %d resident", ErrCorrupt, f[2], ec.had)
		}
		ec.count = int(f[2])
		if i := slices.IndexFunc(*list, func(x edgeCount) bool { return x.e == ec.e }); i >= 0 {
			(*list)[i] = ec // the later write wins
		} else {
			*list = append(*list, ec)
		}
	}
	if len(d) != 0 {
		return r, fmt.Errorf("%w: %d trailing edit bytes", ErrCorrupt, len(d))
	}
	outLen, inLen := editedLen(r.Out, outs), editedLen(r.In, ins)
	all := make([]graph.Edge, outLen+inLen)
	return Record{
		Node:      r.Node,
		NodeLabel: label,
		Out:       mergeCounts(all[:0:outLen], r.Out, outs),
		In:        mergeCounts(all[outLen:outLen], r.In, ins),
	}, nil
}

// editedLen is how many edges es holds once eds are applied to it.
func editedLen(es []graph.Edge, eds []edgeCount) int {
	n := len(es)
	for _, ec := range eds {
		n += ec.count - ec.had
	}
	return n
}

// mergeCounts appends to dst, in (To, Label) order, the edges of src with
// every edge eds names at its edited count.
func mergeCounts(dst, src []graph.Edge, eds []edgeCount) []graph.Edge {
	src = sorted(src)
	slices.SortFunc(eds, func(x, y edgeCount) int { return cmpEdge(x.e, y.e) })
	emit := func(ec edgeCount) {
		for range ec.count {
			dst = append(dst, ec.e)
		}
	}
	j := 0
	for _, e := range src {
		for ; j < len(eds) && cmpEdge(eds[j].e, e) < 0; j++ {
			emit(eds[j])
		}
		if j < len(eds) && eds[j].e == e {
			continue // replaced by the edit, emitted once a later edge passes it
		}
		dst = append(dst, e)
	}
	for ; j < len(eds); j++ {
		emit(eds[j])
	}
	return dst
}
