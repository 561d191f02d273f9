// Package core assembles the paper's decoupled graph-querying system
// (gRouting, Figure 2): a query router in front of a stateless processing
// tier with per-processor LRU caches, backed by the distributed key-value
// storage tier.
//
// The engine executes real queries against real storage — results are
// exact and verified against the in-memory oracle — while time advances on
// a deterministic virtual clock driven by a simnet.Profile, so throughput,
// latency, contention and cache effects reproduce the paper's cluster
// behaviour on a single machine.
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/embed"
	"repro/internal/kvstore"
	"repro/internal/router"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Policy selects the routing scheme (Section 3.3-3.4) plus the paper's
// no-cache control configuration. The constants below are sugar over the
// strategy registry in internal/router: any strategy registered there —
// including user strategies added through the public RegisterStrategy —
// gets its own Policy value, and Policy.String / name parsing resolve
// through the registry uniformly.
type Policy int

const (
	// PolicyNoCache routes next-ready with caching disabled entirely: no
	// cache lookups, no maintenance cost (Section 4.1's "no-cache" mode).
	PolicyNoCache Policy = iota
	// PolicyNextReady is the first baseline: least-loaded dispatch.
	PolicyNextReady
	// PolicyHash is the second baseline: node-id modulo hashing (Eq 1).
	PolicyHash
	// PolicyLandmark is smart routing via landmark regions (Section 3.4.1).
	PolicyLandmark
	// PolicyEmbed is smart routing via graph embedding (Section 3.4.2).
	PolicyEmbed
	// PolicyStableHash is the elastic-topology hash baseline: rendezvous
	// hashing over the active processor set, so a scale-out/scale-in remaps
	// only ~1/N of the node space instead of reshuffling everything the way
	// modulo hashing (Eq 1) does. Not part of the paper's figures.
	PolicyStableHash
)

// Policies lists every policy in presentation order (the order the paper's
// figures use).
var Policies = []Policy{PolicyNoCache, PolicyNextReady, PolicyHash, PolicyLandmark, PolicyEmbed}

// SmartPolicies lists only the smart routing schemes.
var SmartPolicies = []Policy{PolicyLandmark, PolicyEmbed}

func (p Policy) String() string {
	if reg, ok := router.LookupID(int(p)); ok {
		return reg.Name
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// NeedsLandmarks reports whether the policy requires landmark
// preprocessing (selection, BFS distance index, processor assignment).
func (p Policy) NeedsLandmarks() bool {
	reg, ok := router.LookupID(int(p))
	return ok && reg.Prep >= router.PrepLandmarks
}

// NeedsEmbedding reports whether the policy additionally requires the
// graph embedding.
func (p Policy) NeedsEmbedding() bool {
	reg, ok := router.LookupID(int(p))
	return ok && reg.Prep >= router.PrepEmbedding
}

// ParsePolicy resolves a registered strategy name (exactly as printed by
// Policy.String and used by the daemons' -policy flags) back to its
// Policy. The error for an unknown name lists every registered name.
func ParsePolicy(s string) (Policy, error) {
	if reg, ok := router.LookupName(s); ok {
		return Policy(reg.ID), nil
	}
	return 0, fmt.Errorf("unknown policy %q (registered: %s)", s, strings.Join(router.Names(), ", "))
}

// Config describes one system deployment. The zero value plus a graph is
// runnable: defaults follow the paper's setup (Section 4.1).
type Config struct {
	// Processors is the number of query processing servers (paper: 7).
	Processors int
	// StorageServers is the number of storage servers (paper: 4).
	StorageServers int
	// StorageReplicas is the storage tier's replication factor (default 1,
	// the paper's unreplicated setup, where each record lives on its
	// Placer's shard). With >= 2, every node record lives on that many
	// replicas placed by rendezvous hashing over the epoch-versioned
	// storage view, and reads fail over transparently when a replica dies.
	// At any factor the AddStorage / DrainStorage / FailStorage /
	// ReviveStorage System methods move the membership live, with
	// re-replication of under-replicated records completing before each
	// call returns; at 1, AddStorage and DrainStorage wait until no member
	// is down, since a down sole owner's records have nowhere to move
	// from. Values above 1 are incompatible with a custom Placer,
	// which places one copy.
	StorageReplicas int
	// Network is the cluster cost profile (default Infiniband).
	Network simnet.Profile
	// Policy picks the routing scheme (default PolicyEmbed, the paper's
	// best performer). A registered name resolves through ParsePolicy.
	Policy Policy
	// CacheBytes is each processor's cache capacity (paper default: 4 GB,
	// "large enough for our queries").
	CacheBytes int64
	// DisableStealing turns off query stealing (Requirement 2); on by
	// default as in the paper.
	DisableStealing bool
	// LoadFactor is Eq 3/7's divisor (0 = router.DefaultLoadFactor, the
	// paper's optimum).
	LoadFactor float64
	// Alpha is Eq 5's EMA smoothing parameter (0 = router.DefaultAlpha, the
	// paper's optimum).
	Alpha float64
	// Landmarks is |L| (paper optimum: 96).
	Landmarks int
	// MinSeparation is the minimum hop separation between landmarks
	// (paper optimum: 3).
	MinSeparation int
	// Dimensions is the embedding dimensionality (paper optimum: 10).
	Dimensions int
	// Seed drives every stochastic choice (landmark ties, embedding
	// initialisation, router EMA init). Identical configs + seeds produce
	// identical reports.
	Seed int64
	// PreprocessFraction < 1 builds the smart-routing preprocessing on an
	// induced subgraph of that fraction of nodes, incorporating the rest
	// incrementally (Figure 10's robustness experiment). Default 1.
	PreprocessFraction float64
	// Placer overrides the R = 1 storage tier's key placement (default
	// murmur hash, taken modulo the placement domain) — the partitioning
	// ablation. Adaptive placement pins records on top of it.
	Placer kvstore.Placer
	// NoBatching disables frontier-batched multi-reads: every record is
	// fetched with its own round trip, sequentially. Exists for the
	// batching ablation; always off in the paper configuration.
	NoBatching bool
	// StorageDir, when non-empty, enables WAL + snapshot durability on the
	// storage tier: each shard logs every write under this directory and a
	// crashed shard restarts warm (CrashStorage / RestartStorage), with
	// re-replication topping up only the delta written during the outage.
	// A directory holding a previous run's files restarts the whole tier
	// from disk.
	StorageDir string
	// StorageSnapshotEvery is the number of WAL records a shard
	// accumulates before compacting them into a snapshot (default
	// kvstore.DefaultSnapshotEvery). Ignored without StorageDir.
	StorageSnapshotEvery int
	// StorageFsync forces an fsync per logged write: durable against
	// machine crashes, not just process death. Ignored without StorageDir.
	StorageFsync bool
	// AdaptivePlacement enables the workload-adaptive placement subsystem
	// (internal/placement): sessions accumulate per-record storage-read
	// heat attributed to the reading processor, and a background planner
	// migrates hot records toward their dominant reader's near storage
	// slot as bounded copy-then-tombstone moves. Off by default — no heat
	// is recorded and no record ever moves. Works at any StorageReplicas
	// and with a custom Placer.
	AdaptivePlacement bool
	// PlacementBudget bounds the record bytes migrated per planning cycle
	// (<= 0 means unbounded, the offline re-load baseline). Ignored
	// without AdaptivePlacement.
	PlacementBudget int64
	// PlacementEvery auto-runs one planning cycle after this many queries
	// on a Session (0 = only explicit PlacementTick calls). Ignored
	// without AdaptivePlacement.
	PlacementEvery int
	// PlacementMinReads is the planner's heat floor: a record read fewer
	// times than this since the last decay never moves (0 = the placement
	// package default).
	PlacementMinReads int64
	// StorageAffinity makes storage locality matter to the cost model:
	// a fetch served by a storage slot other than the processor's near
	// slot (active storage slots in order, indexed by processor modulo
	// their count) travels a longer network path — its round-trip legs
	// are multiplied by this factor (shard occupancy is unchanged; a far
	// read does not make the server work harder, it makes the reply
	// travel further). 0 or 1 = uniform costs (the paper's model, the
	// default). This is the lever the placement subsystem pulls: moving
	// a hot record to its reader's near slot converts far fetches into
	// near ones, and because a round's latency is the max over its
	// batches, the win arrives only once whole neighbourhoods are near —
	// exactly the bulk moves the planner makes.
	StorageAffinity float64
	// FailedProcessors lists processor slots that start in the Down state:
	// the router diverts their queries to the next-best live processor
	// (the decoupled design's fault-tolerance property). It seeds the
	// system's epoch-versioned topology; ReviveProcessor and the other
	// System membership methods move it afterwards.
	FailedProcessors []int
	// EmbedProvider supplies node coordinates from a pluggable source
	// (embed.FileProvider or any user Embedder) instead of
	// the built-in learned embedding. It is materialised once at system
	// construction and then serves both PolicyEmbed routing and KNearest
	// ranking. When it fails and the policy does not require an embedding,
	// the system starts degraded: KNearest queries answer the typed
	// query.ErrUnavailable until a restart; everything else is unaffected.
	// Nil (the default) keeps the learned scheme for embedding policies.
	EmbedProvider embed.Embedder
}

func (c Config) withDefaults() Config {
	if c.Processors == 0 {
		c.Processors = 7
	}
	if c.StorageServers == 0 {
		c.StorageServers = 4
	}
	if c.StorageReplicas == 0 {
		c.StorageReplicas = 1
	}
	if c.Network.Name == "" {
		c.Network = simnet.Infiniband()
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 4 << 30
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = router.DefaultLoadFactor
	}
	if c.Alpha == 0 {
		c.Alpha = router.DefaultAlpha
	}
	if c.Landmarks == 0 {
		c.Landmarks = 96
	}
	if c.MinSeparation == 0 {
		c.MinSeparation = 3
	}
	if c.Dimensions == 0 {
		c.Dimensions = 10
	}
	if c.PreprocessFraction == 0 {
		c.PreprocessFraction = 1
	}
	return c
}

func (c Config) validate() error {
	if _, ok := router.LookupID(int(c.Policy)); !ok {
		return fmt.Errorf("core: unknown policy %v", c.Policy)
	}
	if c.Processors < 1 {
		return fmt.Errorf("core: Processors = %d, need >= 1", c.Processors)
	}
	if c.StorageServers < 1 {
		return fmt.Errorf("core: StorageServers = %d, need >= 1", c.StorageServers)
	}
	if c.StorageReplicas < 1 || c.StorageReplicas > topology.MaxReplicas {
		return fmt.Errorf("core: StorageReplicas = %d outside [1,%d]", c.StorageReplicas, topology.MaxReplicas)
	}
	if c.StorageReplicas > c.StorageServers {
		return fmt.Errorf("core: StorageReplicas = %d exceeds StorageServers = %d", c.StorageReplicas, c.StorageServers)
	}
	if c.StorageReplicas > 1 && c.Placer != nil {
		return fmt.Errorf("core: StorageReplicas > 1 is incompatible with a custom Placer")
	}
	if c.StorageAffinity != 0 && c.StorageAffinity < 1 {
		return fmt.Errorf("core: StorageAffinity = %v, need 0 (off) or >= 1", c.StorageAffinity)
	}
	if c.PlacementEvery < 0 {
		return fmt.Errorf("core: PlacementEvery = %d, need >= 0", c.PlacementEvery)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: Alpha = %v outside [0,1]", c.Alpha)
	}
	if c.PreprocessFraction < 0 || c.PreprocessFraction > 1 {
		return fmt.Errorf("core: PreprocessFraction = %v outside (0,1]", c.PreprocessFraction)
	}
	if c.Policy.NeedsLandmarks() && c.Landmarks < 2 {
		return fmt.Errorf("core: policy %v needs >= 2 landmarks, have %d", c.Policy, c.Landmarks)
	}
	failed := make(map[int]bool, len(c.FailedProcessors))
	for _, p := range c.FailedProcessors {
		if p < 0 || p >= c.Processors {
			return fmt.Errorf("core: failed processor %d out of range [0,%d)", p, c.Processors)
		}
		failed[p] = true // a slot listed twice is still one failed processor
	}
	if len(failed) >= c.Processors {
		return fmt.Errorf("core: all %d processors marked failed", c.Processors)
	}
	return nil
}

// PrepStats records preprocessing wall time and router-side storage — the
// quantities of Tables 2 and 3.
type PrepStats struct {
	// SelectTime covers landmark selection.
	SelectTime time.Duration
	// BFSTime covers the per-landmark BFS distance fields.
	BFSTime time.Duration
	// EmbedLandmarkTime covers anchor placement; EmbedNodeTime the
	// parallel per-node placement.
	EmbedLandmarkTime time.Duration
	EmbedNodeTime     time.Duration
	// LandmarkBytes is the router's d(u,p) table size; EmbedBytes the
	// coordinate table size; IndexBytes the BFS distance fields.
	LandmarkBytes int64
	EmbedBytes    int64
	IndexBytes    int64
	// GraphBytes is the encoded graph size in the storage tier.
	GraphBytes int64
	// Landmarks is the number of landmarks actually selected.
	Landmarks int
}
