package grouting

import "repro/internal/metrics"

// The observability surface: every Client reports the same structured
// snapshot — per-processor assignment/execution/steal/diversion counts,
// cache hit/miss/eviction counters and routing-decision/queue-depth
// percentiles — whether it drives the in-process virtual-time engine or a
// networked deployment (where the snapshot travels in one OpStats round
// trip). groutingd additionally serves the same data over HTTP on
// /statsz and expvar's /debug/vars when started with -http.
type (
	// Stats is a system-wide snapshot of runtime counters.
	Stats = metrics.Snapshot
	// ProcStats is one processor's share of a Stats snapshot.
	ProcStats = metrics.ProcCounters
	// CacheCounters is a cache's activity counters.
	CacheCounters = metrics.CacheCounters
	// StatsSummary is a compact percentile digest (routing decision time,
	// queue depth).
	StatsSummary = metrics.Summary
	// EpochEvent is one topology transition in a Stats snapshot's bounded
	// epoch log: what changed (tier-tagged "proc" or "storage") and how
	// many queries had to move because of it.
	EpochEvent = metrics.EpochEvent
	// StorageStats is one storage member's share of a Stats snapshot:
	// membership state plus shard counters, including the per-replica
	// failover health signal.
	StorageStats = metrics.StorageCounters
)
