package embed

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
)

// ErrUnavailable marks a provider that cannot serve coordinates right now:
// a degraded external service, an exhausted retry budget, a missing
// artifact. Systems built over a failing provider degrade instead of
// dying — routing falls back and KNearest queries surface the condition
// as a typed query error.
var ErrUnavailable = errors.New("embed: provider unavailable")

// Embedder is the provider interface every embedding source implements:
// a precomputed table (FileProvider), a client of an external service —
// or anything a downstream user registers. Embed is batched:
// one call returns one coordinate row per requested node, positionally
// aligned with nodes.
//
// Contract (pinned by the embedtest conformance suite):
//   - Every non-nil row has exactly Dimensions() entries.
//   - A node the provider has no coordinates for gets a nil row, not an
//     error — partial coverage is normal (file providers cover only what
//     was written; mutations add nodes the artifact predates).
//   - Deterministic: the same provider instance returns identical rows
//     for identical nodes, and batch calls agree with sequential
//     one-node calls.
//   - Context-aware: a cancelled ctx aborts with ctx.Err(); a provider
//     that cannot answer fails with an error wrapping ErrUnavailable.
type Embedder interface {
	// Name identifies the provider ("file", "service", ...).
	Name() string
	// Dimensions is the width of every coordinate row.
	Dimensions() int
	// Embed returns nodes' coordinate rows, positionally aligned.
	Embed(ctx context.Context, nodes []graph.NodeID) ([][]float32, error)
}

// learnedName is what SourceName calls the table a router builds itself
// with Build.
const learnedName = "learned"

// SourceName is the provider name Stats() reports for a router's coordinate
// table: p's own, or the built-in learned scheme's when no provider was
// configured and the router built the table itself.
func SourceName(p Embedder) string {
	if p == nil {
		return learnedName
	}
	return p.Name()
}

// Snapshotter is an optional provider fast path: providers that already
// hold a fully materialised Embedding expose it directly, so Materialize
// skips the batched walk (and needs no graph).
type Snapshotter interface {
	Snapshot() *Embedding
}

// materializeBatch is how many nodes Materialize requests per Embed call.
const materializeBatch = 1024

// Materialize evaluates p over every node of g and returns the dense
// router-side Embedding the routing strategies and the KNearest re-rank
// consume. Nodes the provider does not cover stay unembedded (NaN rows).
// Providers implementing Snapshotter short-circuit; g may then be nil.
func Materialize(ctx context.Context, p Embedder, g *graph.Graph) (*Embedding, error) {
	if s, ok := p.(Snapshotter); ok {
		if e := s.Snapshot(); e != nil {
			return e, nil
		}
	}
	if p.Dimensions() <= 0 {
		return nil, fmt.Errorf("embed: provider %q reports %d dimensions", p.Name(), p.Dimensions())
	}
	if g == nil {
		return nil, fmt.Errorf("embed: materializing provider %q needs a graph", p.Name())
	}
	e := &Embedding{D: p.Dimensions()}
	nodes := g.Nodes()
	for lo := 0; lo < len(nodes); lo += materializeBatch {
		hi := min(lo+materializeBatch, len(nodes))
		rows, err := p.Embed(ctx, nodes[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("embed: materialize %q: %w", p.Name(), err)
		}
		if len(rows) != hi-lo {
			return nil, fmt.Errorf("embed: provider %q returned %d rows for %d nodes", p.Name(), len(rows), hi-lo)
		}
		for i, row := range rows {
			if row == nil {
				continue
			}
			if len(row) != e.D {
				return nil, fmt.Errorf("embed: provider %q row has %d dims, want %d", p.Name(), len(row), e.D)
			}
			e.setRow(nodes[lo+i], row)
		}
	}
	return e, nil
}
