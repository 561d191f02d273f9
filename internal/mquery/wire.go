package mquery

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/wire"
)

// Subtask and Partial travel inside the rpc envelopes as compact varint
// streams. Decoding bounds every count so corrupt input fails instead of
// panicking or over-allocating.

// AppendBinary appends the subtask's wire form to buf and returns the
// extended slice — the allocation-free entry point the binary rpc framing
// encodes through.
func (st Subtask) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(st.Kind))
	buf = binary.AppendUvarint(buf, uint64(st.Anchor))
	buf = binary.AppendUvarint(buf, uint64(st.Radius))
	buf = binary.AppendUvarint(buf, uint64(len(st.Edges)))
	for _, et := range st.Edges {
		buf = binary.AppendUvarint(buf, uint64(et.Edge))
		buf = appendLabel(buf, et.FromLabel)
		buf = appendLabel(buf, et.ToLabel)
		buf = appendLabel(buf, et.EdgeLabel)
		buf = binary.AppendUvarint(buf, uint64(et.FromAnchor))
		buf = binary.AppendUvarint(buf, uint64(et.ToAnchor))
	}
	buf = binary.AppendUvarint(buf, uint64(st.Target))
	buf = binary.AppendUvarint(buf, uint64(st.Hops))
	buf = binary.AppendUvarint(buf, uint64(st.Budget))
	return buf
}

// UnmarshalBinary decodes AppendBinary's form.
func (st *Subtask) UnmarshalBinary(data []byte) error {
	d := wire.NewReader(data)
	kind := Kind(d.U32())
	anchor := graph.NodeID(d.U32())
	radius := int(d.U32())
	nEdges := d.Count(query.MaxPatternEdges)
	var edges []EdgeTask
	for i := 0; i < nEdges; i++ {
		edges = append(edges, EdgeTask{
			Edge:       int(d.U32()),
			FromLabel:  readLabel(&d),
			ToLabel:    readLabel(&d),
			EdgeLabel:  readLabel(&d),
			FromAnchor: graph.NodeID(d.U32()),
			ToAnchor:   graph.NodeID(d.U32()),
		})
	}
	target := graph.NodeID(d.U32())
	hops := int(d.U32())
	budget := int(d.U32())
	if err := d.Finish("subtask"); err != nil {
		return err
	}
	if kind != KindPattern && kind != KindReach && kind != KindKNN {
		return fmt.Errorf("subtask: unknown kind %d", kind)
	}
	*st = Subtask{Kind: kind, Anchor: anchor, Radius: radius, Edges: edges,
		Target: target, Hops: hops, Budget: budget}
	return nil
}

// Partial flag bits, one varint. partialIDDeltas marks the id encoding this
// build writes: every node-id list (Candidates, each relation's From and To
// columns, the Frontier nodes) travels as zigzag varint deltas from the
// previous id of the same column. Every partial sets it and the decoder
// requires it, so a peer from before the encoding — which wrote whole ids
// and refuses any flag above 3 — fails loudly in both directions instead of
// misreading ids.
const (
	partialFound    = 1 // Found — the whole value on frames sent before NoAnchor existed
	partialNoAnchor = 2
	partialIDDeltas = 4
)

// AppendBinary appends the partial's wire form to buf and returns the
// extended slice; see Subtask.AppendBinary.
func (p Partial) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.Kind))
	buf = binary.AppendUvarint(buf, uint64(p.Anchor))
	flags := uint64(partialIDDeltas)
	if p.Found {
		flags |= partialFound
	}
	if p.NoAnchor {
		flags |= partialNoAnchor
	}
	buf = binary.AppendUvarint(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(p.Visited))
	buf = binary.AppendUvarint(buf, uint64(len(p.Rels)))
	for _, er := range p.Rels {
		buf = binary.AppendUvarint(buf, uint64(er.Edge))
		buf = binary.AppendUvarint(buf, uint64(len(er.Pairs)))
		var from, to graph.NodeID
		for _, pr := range er.Pairs {
			buf = appendID(buf, &from, pr.From)
			buf = appendID(buf, &to, pr.To)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Frontier)))
	var node graph.NodeID
	for _, b := range p.Frontier {
		buf = appendID(buf, &node, b.Node)
		buf = binary.AppendUvarint(buf, uint64(b.Hops))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Candidates)))
	var cand graph.NodeID
	for _, c := range p.Candidates {
		buf = appendID(buf, &cand, c)
	}
	return buf
}

// UnmarshalBinary decodes AppendBinary's form.
func (p *Partial) UnmarshalBinary(data []byte) error {
	d := wire.NewReader(data)
	kind := Kind(d.U32())
	anchor := graph.NodeID(d.U32())
	flags := d.U32()
	// The flags come first so that a peer of another version is named as
	// one, not reported as a malformed id further on.
	switch {
	case d.Failed():
	case flags&partialIDDeltas == 0:
		return fmt.Errorf("partial: flags %#x lack the id-delta bit: a peer from before delta-coded ids", flags)
	case flags > partialFound|partialNoAnchor|partialIDDeltas:
		return fmt.Errorf("partial: unknown flag bits %#x", flags)
	}
	visited := int(d.U32())
	nRels := d.Count(query.MaxPatternEdges)
	var rels []EdgeRel
	for i := 0; i < nRels; i++ {
		edge := int(d.U32())
		nPairs := d.Count(d.Len()) // each pair costs >= 2 bytes
		var pairs []Pair
		var from, to graph.NodeID
		for j := 0; j < nPairs; j++ {
			pairs = append(pairs, Pair{From: readID(&d, &from), To: readID(&d, &to)})
		}
		rels = append(rels, EdgeRel{Edge: edge, Pairs: pairs})
	}
	nFront := d.Count(d.Len())
	var front []Boundary
	var node graph.NodeID
	for i := 0; i < nFront; i++ {
		front = append(front, Boundary{Node: readID(&d, &node), Hops: int(d.U32())})
	}
	nCands := d.Count(d.Len())
	var cands []graph.NodeID
	var cand graph.NodeID
	for i := 0; i < nCands; i++ {
		cands = append(cands, readID(&d, &cand))
	}
	if err := d.Finish("partial"); err != nil {
		return err
	}
	if kind != KindPattern && kind != KindReach && kind != KindKNN {
		return fmt.Errorf("partial: unknown kind %d", kind)
	}
	*p = Partial{Kind: kind, Anchor: anchor, Rels: rels, Found: flags&partialFound != 0,
		NoAnchor: flags&partialNoAnchor != 0, Frontier: front, Visited: visited, Candidates: cands}
	return nil
}

// appendID appends id as the zigzag varint of its difference from *prev and
// makes it the column's new previous id: ascending ids cost their gaps,
// and a list in any order still round-trips.
func appendID(buf []byte, prev *graph.NodeID, id graph.NodeID) []byte {
	buf = binary.AppendVarint(buf, int64(id)-int64(*prev))
	*prev = id
	return buf
}

// readID reads appendID's delta from *prev; a delta that takes the id outside
// [0, 2^32-1] fails the reader.
func readID(d *wire.Reader, prev *graph.NodeID) graph.NodeID {
	v := int64(*prev) + d.Varint() // *prev >= 0, so an overflowing sum wraps negative
	if v < 0 || v > math.MaxUint32 {
		d.Fail()
		return 0
	}
	*prev = graph.NodeID(v)
	return *prev
}

// appendLabel encodes a resolved label constraint (-1 = any) as l+1.
func appendLabel(buf []byte, l int32) []byte {
	return binary.AppendUvarint(buf, uint64(l+1))
}

// readLabel reads a resolved label constraint encoded as l+1 (0 = any).
func readLabel(d *wire.Reader) int32 {
	v := d.Uvarint()
	if v > 1<<16 {
		d.Fail()
		return -1
	}
	return int32(v) - 1
}
