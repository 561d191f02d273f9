package grouting

import (
	"fmt"

	"repro/internal/core"
)

// Option sets one Config field for New. New(g) alone builds the paper's
// cluster (7 processors, 4 storage servers, Infiniband, 4 GB caches) under
// PolicyNoCache, the zero Policy; WithPolicy(PolicyEmbed) selects the
// paper's best performer. Config is the configuration: every field, these
// included, is set through NewSystem's Config literal. The options below
// are a frozen shorthand for the few fields the repository benchmark sets;
// a new Config field gets no setter.
type Option func(*Config)

// WithPolicy selects the routing scheme.
func WithPolicy(p Policy) Option { return func(c *Config) { c.Policy = p } }

// WithProcessors sets the number of query processors.
func WithProcessors(n int) Option { return func(c *Config) { c.Processors = n } }

// WithStorageServers sets the number of storage servers.
func WithStorageServers(n int) Option { return func(c *Config) { c.StorageServers = n } }

// WithCacheBytes sets each processor's LRU cache capacity.
func WithCacheBytes(b int64) Option { return func(c *Config) { c.CacheBytes = b } }

// WithLandmarks sets |L|, the landmark count for smart routing.
func WithLandmarks(n int) Option { return func(c *Config) { c.Landmarks = n } }

// WithMinSeparation sets the minimum hop separation between landmarks.
func WithMinSeparation(h int) Option { return func(c *Config) { c.MinSeparation = h } }

// WithDimensions sets the graph-embedding dimensionality.
func WithDimensions(d int) Option { return func(c *Config) { c.Dimensions = d } }

// WithSeed drives every stochastic choice; identical graphs, options and
// seeds produce identical systems.
func WithSeed(s int64) Option { return func(c *Config) { c.Seed = s } }

// WithEmbedProvider plugs a coordinate source (OpenEmbeddingFile,
// NewFileProvider, or any Embedder) into the system in place of the
// built-in learned embedding: it is materialised once at construction and
// then serves both embedding-based routing and KNearest ranking. When the
// provider fails and the policy does not require an embedding, the system
// starts degraded — KNearest queries answer the typed ErrUnavailable.
func WithEmbedProvider(p Embedder) Option { return func(c *Config) { c.EmbedProvider = p } }

// ParsePolicy maps a policy name (as printed by Policy.String and used by
// the daemons' -policy flags) back to the Policy. It resolves through the
// strategy registry, so it is an exact round-trip of Policy.String for
// built-ins and RegisterStrategy additions alike; the unknown-name error
// lists every registered name.
func ParsePolicy(s string) (Policy, error) {
	p, err := core.ParsePolicy(s)
	if err != nil {
		return 0, fmt.Errorf("grouting: %w", err)
	}
	return p, nil
}

// New builds a system from options: NewSystem over the Config they set.
// Zero fields take Config's defaults — the paper's, except Policy, whose
// zero value is PolicyNoCache.
func New(g *Graph, opts ...Option) (*System, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return NewSystem(g, cfg)
}
