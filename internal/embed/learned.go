package embed

import (
	"context"

	"repro/internal/graph"
	"repro/internal/landmark"
)

// BuildOption is a functional option over the embedding pipeline's
// Options; zero-value fields keep the paper's defaults exactly as the
// plain Options struct does.
type BuildOption func(*Options)

// WithDimensions sets the Euclidean dimensionality (paper default: 10).
func WithDimensions(d int) BuildOption { return func(o *Options) { o.Dimensions = d } }

// WithSeed drives where the nodes no landmark reaches are put.
func WithSeed(s int64) BuildOption { return func(o *Options) { o.Seed = s } }

// NewOptions assembles an Options from functional options.
func NewOptions(opts ...BuildOption) Options {
	var o Options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// Learned is the built-in provider: the paper's landmark-anchored embedding
// (Section 3.4.2), placed here by landmark MDS instead of the paper's
// Simplex Downhill searches, followed by Build's neighbour-averaging pass,
// computed once at construction. It is Build: its output is bit-identical to
// calling Build directly with the same graph, index and options, which the
// golden test pins.
type Learned struct {
	e *Embedding
}

// NewLearned builds the learned embedding over g (hop distances supplied
// by idx) and wraps it as a provider.
func NewLearned(g *graph.Graph, idx *landmark.Index, opts ...BuildOption) (*Learned, error) {
	e, err := Build(g, idx, NewOptions(opts...))
	if err != nil {
		return nil, err
	}
	return &Learned{e: e}, nil
}

const learnedName = "learned"

// Name implements Embedder.
func (l *Learned) Name() string { return learnedName }

// Dimensions implements Embedder.
func (l *Learned) Dimensions() int { return l.e.D }

// Embed implements Embedder, serving rows from the materialised build.
func (l *Learned) Embed(ctx context.Context, nodes []graph.NodeID) ([][]float32, error) {
	return rowsFromEmbedding(ctx, l.e, nodes)
}

// Snapshot implements Snapshotter: the learned scheme is materialised by
// construction, so Materialize is free.
func (l *Learned) Snapshot() *Embedding { return l.e }
