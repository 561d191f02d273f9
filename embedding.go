package grouting

import (
	"context"

	"repro/internal/embed"
	"repro/internal/query"
)

// Pluggable embedding providers. The routing strategies and the KNearest
// query class consume node coordinates through the Embedder interface;
// the paper's landmark-anchored scheme is built automatically by embedding
// policies, a precomputed table plugs in as a FileProvider
// (OpenEmbeddingFile, NewFileProvider), and any user type satisfying the
// interface — a client of an external embedding service, say — plugs in
// the same way, via WithEmbedProvider locally or
// RouterSpec.EmbedProvider over TCP. The conformance suite under
// internal/embed/embedtest pins the contract every provider must meet.
type (
	// Embedder is the pluggable coordinate source: batched, positional,
	// deterministic, context-aware. A node the provider does not cover
	// gets a nil row, not an error.
	Embedder = embed.Embedder
	// Embedding is the dense materialised coordinate table the router
	// ranks and routes with.
	Embedding = embed.Embedding
	// FileProvider serves a precomputed embedding artifact.
	FileProvider = embed.FileProvider
	// CoordSource supplies coordinates for KNearest evaluation;
	// *Embedding satisfies it.
	CoordSource = query.CoordSource
)

// ErrEmbedUnavailable marks a provider that cannot serve coordinates:
// degraded external service, exhausted retries, missing artifact.
// Distinct from the transport-level ErrUnavailable — a KNearest query on
// a system whose provider failed answers an error wrapping the latter.
var ErrEmbedUnavailable = embed.ErrUnavailable

// OpenEmbeddingFile loads a precomputed embedding artifact written by
// WriteEmbeddingFile and returns it as a provider (versioned binary
// format, CRC-verified).
func OpenEmbeddingFile(path string) (*FileProvider, error) { return embed.OpenFileProvider(path) }

// NewFileProvider wraps an already-materialised embedding as a provider —
// the way both transports of one deployment share identical coordinates.
func NewFileProvider(e *Embedding) *FileProvider { return embed.NewFileProvider(e) }

// WriteEmbeddingFile persists an embedding as a precomputed artifact
// loadable by OpenEmbeddingFile and groutingd -embed-file.
func WriteEmbeddingFile(path string, e *Embedding) error { return embed.WriteEmbeddingFile(path, e) }

// MaterializeEmbedding evaluates a provider over every node of g and
// returns the dense coordinate table — what a system does internally at
// construction, exposed for writing artifacts and for oracles.
func MaterializeEmbedding(ctx context.Context, p Embedder, g *Graph) (*Embedding, error) {
	return embed.Materialize(ctx, p, g)
}
