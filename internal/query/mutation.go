package query

import (
	"fmt"

	"repro/internal/graph"
)

// MutOp enumerates the online graph mutations every transport accepts; the
// values are what travels on the wire.
type MutOp uint8

const (
	// MutUpsertNode creates Node with Label, or relabels it when it
	// already exists. Idempotent: upserting the same (node, label) twice
	// is a no-op the second time.
	MutUpsertNode MutOp = iota + 1
	// MutAddEdge ensures the edge Node->To with Label exists. Adding an
	// edge that is already present succeeds without duplicating it; a
	// missing endpoint is a conflict.
	MutAddEdge
	// MutRemoveEdge removes the edge Node->To (any label: the
	// lowest-labelled edge when several connect u to v). Removing an edge
	// that does not exist is a conflict.
	MutRemoveEdge
)

func (op MutOp) String() string {
	switch op {
	case MutUpsertNode:
		return "upsert-node"
	case MutAddEdge:
		return "add-edge"
	case MutRemoveEdge:
		return "remove-edge"
	}
	return fmt.Sprintf("MutOp(%d)", uint8(op))
}

// Mutation is one online graph write, the one value that carries it from a
// client through either transport to the engine that applies it. Node is the
// subject (the upserted node, or an edge's source); To is the edge
// destination; Label is the node label for MutUpsertNode and the edge label
// for MutAddEdge (ignored by MutRemoveEdge). Labels travel as strings, like
// Query.CountLabel: the engine interns them into the label table the stored
// records were encoded with.
type Mutation struct {
	Op    MutOp
	Node  graph.NodeID
	To    graph.NodeID
	Label string
}

// Validate checks the mutation's shape without consulting a graph, the same
// contract Query.Validate gives reads: every transport runs it before
// executing, so a malformed mutation is rejected with the typed ErrBadQuery
// whether it was submitted in-process or over TCP.
func (m Mutation) Validate() error {
	switch m.Op {
	case MutUpsertNode:
		if m.To != 0 {
			return fmt.Errorf("%w: upsert-node carries an edge destination", ErrBadQuery)
		}
	case MutAddEdge, MutRemoveEdge:
		if m.Node == m.To {
			return fmt.Errorf("%w: self-loop %d->%d", ErrBadQuery, m.Node, m.To)
		}
	default:
		return fmt.Errorf("%w: unknown mutation op %d", ErrBadQuery, uint8(m.Op))
	}
	return nil
}

// Apply is the oracle form of the mutation: it makes the edit on an
// in-memory graph, interning Label into g's label table. It fails where the
// engines fail — Validate, then gstore.Apply on the stored records — with
// the same error class: ErrBadQuery for a malformed mutation, ErrConflict for
// an edge mutation on an absent endpoint or the removal of an absent edge. A
// failed mutation leaves g's adjacency unchanged.
func (m Mutation) Apply(g *graph.Graph) error {
	if err := m.Validate(); err != nil {
		return err
	}
	lab := g.InternLabel(m.Label)
	switch m.Op {
	case MutUpsertNode:
		g.UpsertNode(m.Node, lab)
	case MutAddEdge:
		if _, err := g.EnsureEdge(m.Node, m.To, lab); err != nil {
			return fmt.Errorf("%w: add edge %d->%d: %v", ErrConflict, m.Node, m.To, err)
		}
	case MutRemoveEdge:
		if !g.RemoveEdge(m.Node, m.To) {
			return fmt.Errorf("%w: remove edge %d->%d: no such edge", ErrConflict, m.Node, m.To)
		}
	}
	return nil
}
