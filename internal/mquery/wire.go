package mquery

import (
	"encoding/binary"
	"fmt"

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

// AppendBinary appends the partial's wire form to buf and returns the
// extended slice; see Subtask.AppendBinary.
func (p Partial) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.Kind))
	buf = binary.AppendUvarint(buf, uint64(p.Anchor))
	// One flags varint: bit 0 is Found — the whole value, on every frame
	// sent before NoAnchor existed — and bit 1 NoAnchor.
	flags := uint64(0)
	if p.Found {
		flags |= 1
	}
	if p.NoAnchor {
		flags |= 2
	}
	buf = binary.AppendUvarint(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(p.Visited))
	buf = binary.AppendUvarint(buf, uint64(len(p.Rels)))
	for _, er := range p.Rels {
		buf = binary.AppendUvarint(buf, uint64(er.Edge))
		buf = binary.AppendUvarint(buf, uint64(len(er.Pairs)))
		for _, pr := range er.Pairs {
			buf = binary.AppendUvarint(buf, uint64(pr.From))
			buf = binary.AppendUvarint(buf, uint64(pr.To))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Frontier)))
	for _, b := range p.Frontier {
		buf = binary.AppendUvarint(buf, uint64(b.Node))
		buf = binary.AppendUvarint(buf, uint64(b.Hops))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Candidates)))
	for _, c := range p.Candidates {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf
}

// UnmarshalBinary decodes AppendBinary's form.
func (p *Partial) UnmarshalBinary(data []byte) error {
	d := wire.NewReader(data)
	kind := Kind(d.U32())
	anchor := graph.NodeID(d.U32())
	flags := d.U32()
	visited := int(d.U32())
	nRels := d.Count(query.MaxPatternEdges)
	var rels []EdgeRel
	for i := 0; i < nRels; i++ {
		edge := int(d.U32())
		nPairs := d.Count(d.Len()) // each pair costs >= 2 bytes
		var pairs []Pair
		for j := 0; j < nPairs; j++ {
			from := graph.NodeID(d.U32())
			to := graph.NodeID(d.U32())
			pairs = append(pairs, Pair{From: from, To: to})
		}
		rels = append(rels, EdgeRel{Edge: edge, Pairs: pairs})
	}
	nFront := d.Count(d.Len())
	var front []Boundary
	for i := 0; i < nFront; i++ {
		node := graph.NodeID(d.U32())
		hops := int(d.U32())
		front = append(front, Boundary{Node: node, Hops: hops})
	}
	nCands := d.Count(d.Len())
	var cands []graph.NodeID
	for i := 0; i < nCands; i++ {
		cands = append(cands, graph.NodeID(d.U32()))
	}
	if err := d.Finish("partial"); err != nil {
		return err
	}
	if kind != KindPattern && kind != KindReach && kind != KindKNN {
		return fmt.Errorf("partial: unknown kind %d", kind)
	}
	if flags > 3 {
		return fmt.Errorf("partial: unknown flag bits %#x", flags)
	}
	*p = Partial{Kind: kind, Anchor: anchor, Rels: rels, Found: flags&1 != 0, NoAnchor: flags&2 != 0,
		Frontier: front, Visited: visited, Candidates: cands}
	return nil
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
