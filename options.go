package grouting

import (
	"fmt"

	"repro/internal/core"
)

// Option customises a deployment Config. Options compose with the paper's
// defaults: New(g) alone builds the paper's primary setup (7 processors,
// 4 storage servers, Infiniband, embed routing, 4 GB caches).
type Option func(*Config)

// WithPolicy selects the routing scheme.
func WithPolicy(p Policy) Option { return func(c *Config) { c.Policy = p } }

// WithProcessors sets the number of query processors.
func WithProcessors(n int) Option { return func(c *Config) { c.Processors = n } }

// WithStorageServers sets the number of storage servers.
func WithStorageServers(n int) Option { return func(c *Config) { c.StorageServers = n } }

// WithStorageReplicas sets the storage tier's replication factor. With
// >= 2, every node record lives on that many replicas placed by
// rendezvous hashing over the epoch-versioned storage view, reads fail
// over transparently when a replica dies, and the storage tier becomes
// elastic: System.AddStorage / DrainStorage / FailStorage / ReviveStorage
// move the membership live, re-replicating under-replicated records
// before each call returns.
func WithStorageReplicas(r int) Option { return func(c *Config) { c.StorageReplicas = r } }

// WithStorageDir enables WAL + snapshot durability on the storage tier:
// each shard logs every write under its own subdirectory of dir before
// acking it, compacts the log into a snapshot periodically, and a shard
// restarted over the same directory (System.RestartStorage after a
// CrashStorage) recovers warm — every acked write intact — with rejoin
// re-replication reduced to the missed delta.
func WithStorageDir(dir string) Option { return func(c *Config) { c.StorageDir = dir } }

// WithStorageSnapshotEvery sets how many WAL records a durable shard
// accumulates before compacting them into a snapshot (0 = the kvstore
// default). Ignored without WithStorageDir.
func WithStorageSnapshotEvery(n int) Option { return func(c *Config) { c.StorageSnapshotEvery = n } }

// WithAdaptivePlacement enables the workload-adaptive placement subsystem:
// sessions accumulate per-record storage-read heat attributed to the
// reading processor, and a planner migrates hot records toward their
// dominant reader's near storage slot as bounded, versioned
// copy-then-tombstone moves. budgetBytes bounds the bytes migrated per
// planning cycle (<= 0 = unbounded); every > 0 runs one cycle
// automatically after that many queries on a session (0 = only explicit
// Session.PlacementTick calls).
func WithAdaptivePlacement(budgetBytes int64, every int) Option {
	return func(c *Config) {
		c.AdaptivePlacement = true
		c.PlacementBudget = budgetBytes
		c.PlacementEvery = every
	}
}

// WithPlacementMinReads sets the planner's hysteresis floor: a record read
// fewer times than this since the last decay never moves (0 = default).
func WithPlacementMinReads(n int64) Option { return func(c *Config) { c.PlacementMinReads = n } }

// WithStorageAffinity makes storage locality matter to the virtual-time
// cost model: a fetch served by a storage slot other than the processor's
// near slot has its network and service cost multiplied by factor (>= 1;
// 0 or 1 keeps the paper's uniform-cost model). This is the lever adaptive
// placement pulls — moving a hot record to its dominant reader's near slot
// converts far fetches into near ones.
func WithStorageAffinity(factor float64) Option {
	return func(c *Config) { c.StorageAffinity = factor }
}

// WithNetwork sets the cluster cost profile (Infiniband or Ethernet).
func WithNetwork(p NetworkProfile) Option { return func(c *Config) { c.Network = p } }

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

// WithLoadFactor sets Eq 3/7's load-balancing divisor.
func WithLoadFactor(f float64) Option { return func(c *Config) { c.LoadFactor = f } }

// WithAlpha sets Eq 5's EMA smoothing parameter.
func WithAlpha(a float64) Option { return func(c *Config) { c.Alpha = a } }

// WithoutStealing disables query stealing (Requirement 2).
func WithoutStealing() Option { return func(c *Config) { c.DisableStealing = true } }

// WithPrepWorkers bounds preprocessing parallelism (0 = GOMAXPROCS).
func WithPrepWorkers(n int) Option { return func(c *Config) { c.PrepWorkers = n } }

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

// NewConfig assembles a Config from options (zero fields keep the paper's
// defaults, exactly as the plain Config struct does).
func NewConfig(opts ...Option) Config {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// New builds a system from functional options: it loads g into the storage
// tier, runs the preprocessing the configured policy needs, and returns a
// ready-to-query system. NewSystem with a Config struct remains supported;
// New(g, opts...) is sugar over it.
func New(g *Graph, opts ...Option) (*System, error) {
	return NewSystem(g, NewConfig(opts...))
}
