package metrics

import (
	"fmt"
	"math/bits"
	"strings"
)

// Histogram is a log₂-bucketed counter over non-negative int64 samples
// (nanoseconds, queue depths, byte counts). Memory is constant, Observe is
// O(1), and quantiles resolve to the upper bound of the owning bucket — a
// ≤ 2× overestimate, which is plenty for the order-of-magnitude questions
// the observability surface answers ("is routing µs or ms?"). The zero
// value is ready to use. Not safe for concurrent use; callers that share
// one (the networked router) guard it with their own lock.
type Histogram struct {
	counts [65]int64 // bucket b holds values with bit length b: [2^(b-1), 2^b)
	count  int64
	sum    int64
	max    int64
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Quantile returns an upper bound for the p-quantile (p in [0,1]); 0 when
// empty. The bound is exact for bucket boundaries and never exceeds the
// observed maximum.
func (h *Histogram) Quantile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(p*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			if b == 0 {
				return 0
			}
			upper := int64(1)<<uint(b) - 1
			if upper > h.max {
				upper = h.max
			}
			return upper
		}
	}
	return h.max
}

// Summary condenses the histogram into the fixed-size form that travels
// over the wire.
func (h *Histogram) Summary() Summary {
	s := Summary{Count: h.count, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / h.count
		s.P50 = h.Quantile(0.50)
		s.P95 = h.Quantile(0.95)
		s.P99 = h.Quantile(0.99)
		s.P999 = h.Quantile(0.999)
	}
	return s
}

// Summary is a compact percentile digest of a Histogram: fixed size, so a
// stats poll carrying several of them stays small on the wire. The
// p50/p99/p999 triple is the one latency definition the whole
// observability surface shares: Snapshot, /statsz and grouting-cli -stats
// all report this struct.
type Summary struct {
	Count int64
	Mean  int64
	P50   int64
	P95   int64
	P99   int64
	P999  int64
	Max   int64
}

// CacheCounters is one cache's (or an aggregate's) activity counters, the
// Eq 8/9 quantities every transport reports identically.
type CacheCounters struct {
	Hits          int64
	Misses        int64
	Inserts       int64
	Evictions     int64
	Rejected      int64
	CurrentBytes  int64
	CapacityBytes int64
}

// Add accumulates o into c (aggregation across processors).
func (c *CacheCounters) Add(o CacheCounters) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Inserts += o.Inserts
	c.Evictions += o.Evictions
	c.Rejected += o.Rejected
	c.CurrentBytes += o.CurrentBytes
	c.CapacityBytes += o.CapacityBytes
}

// Touches returns the total record accesses (hits + misses).
func (c CacheCounters) Touches() int64 { return c.Hits + c.Misses }

// HitRate returns hits / (hits + misses), 0 when nothing was touched.
func (c CacheCounters) HitRate() float64 {
	if t := c.Touches(); t > 0 {
		return float64(c.Hits) / float64(t)
	}
	return 0
}

// EpochEvent records one topology transition: what changed and how many
// queries had to move because of it. Routers keep a bounded log of these
// (newest last) and report it in the Snapshot, so an operator can read the
// cost of each scale-out/scale-in off /statsz.
type EpochEvent struct {
	// Tier names the tier whose membership moved: "proc" or "storage"
	// (empty reads as "proc" for snapshots recorded before the storage
	// tier became elastic). The two tiers have independent epoch counters.
	Tier string
	// Epoch is the epoch this transition produced.
	Epoch uint64
	// Joined / Left / Failed / Revived count member transitions applied in
	// this epoch change (an apply may batch several missed epochs).
	Joined  int
	Left    int
	Failed  int
	Revived int
	// Reassigned counts queries moved by this transition: queued work
	// re-routed off departed members (virtual-time router), or in-flight
	// queries left to drain on the old view (networked router).
	Reassigned int64
}

// StorageCounters is one storage member's share of a Snapshot: its
// membership state plus the shard-level read/write accounting, including
// the per-replica health signal (Failovers). Everything after Addr is the
// shard's own row, mapped from its state in one place on both transports
// (kvstore.Shard.Counters); a storage daemon answers OpStats with it.
type StorageCounters struct {
	// Slot is the storage slot (stable across epochs, never reused).
	Slot int
	// Status is the member's topology state: "active", "draining", "down"
	// or "left".
	Status string
	// Addr is the member's network address (empty on the virtual-time
	// engine).
	Addr string
	// Keys and Bytes are the shard's resident live entries.
	Keys  int64
	Bytes int64
	// Gets counts key reads served. Misses counts reads of absent keys: on
	// the virtual-time engine, reads no replica could serve, charged to the
	// preferred one; over TCP, reads of keys this shard lacks, counted by
	// its listener.
	Gets   int64
	Misses int64
	// Failovers counts reads bounced off this member while it was
	// unreachable — the per-replica health signal behind read failover.
	// Counted by the virtual-time engine only: over TCP the storage client
	// fails over per key but keeps no per-shard count, so it reads 0.
	Failovers int64
	// RepairBytes counts the bytes copied onto this member by
	// re-replication — the transition cost a warm (WAL-recovered) restart
	// keeps small and a cold restart pays in full. Virtual-time engine
	// only: the TCP tier has no repair, so it reads 0 there.
	RepairBytes int64
	// Durable is the member's durability state: "fresh" (log open,
	// nothing replayed), "warm" (recovered state from its WAL),
	// "crashed" (killed, not yet restarted), or "" when the deployment has
	// no durability layer (the remaining fields are then zero).
	Durable string
	// WALBytes / WALRecords measure the write-ahead log file: the image
	// its last compaction wrote and the records appended since.
	WALBytes   int64
	WALRecords int64
	// Snapshots counts the compactions of this member's log since it was
	// opened: each rewrites the file as the live records, once the shard
	// has cleaned them in memory (the field keeps its older name).
	Snapshots int64
	// DurableVersion is the highest write version the member has made
	// durable — what its rejoin-warm handshake advertises. On the
	// virtual-time engine versions are store-wide, so replicas compare; over
	// TCP each shard stamps its own writes, so the number is per shard, and
	// a shard that does not answer the poll shows the version it announced
	// when it joined.
	DurableVersion uint64
	// ReplayedBytes is the WAL volume replayed by the member's
	// most recent local recovery, and RecoverNanos how long that replay
	// took: together the shard's warm-restart cost.
	ReplayedBytes int64
	RecoverNanos  int64
}

// PlacementCounters is the adaptive-placement subsystem's share of a
// Snapshot: what the background planner has done since the system started.
// All-zero when the subsystem is disabled, and on the TCP transport, which
// does not place adaptively.
type PlacementCounters struct {
	// Cycles counts planner runs; Planned the migrations those runs
	// proposed; Moved the migrations actually executed (Planned minus
	// moves that failed at execution time).
	Cycles  int64
	Planned int64
	Moved   int64
	// MovedBytes is the record bytes migrated (counted once per record).
	MovedBytes int64
	// BudgetBytes is the per-cycle migration budget the planner is bounded
	// by (0 = unbounded).
	BudgetBytes int64
	// SkippedBudget counts candidate moves deferred because a cycle's
	// byte budget was exhausted; SkippedCold candidates rejected by the
	// hysteresis rules (too few reads, or no sufficiently dominant reader).
	SkippedBudget int64
	SkippedCold   int64
	// Overrides is the number of records currently pinned away from their
	// rendezvous placement.
	Overrides int64
}

// MoveEvent records one executed migration: which record moved where, why
// (its dominant reader), and what it cost. Snapshots carry a bounded log
// of these (newest last) so an operator can read the planner's recent
// decisions off the observability surface.
type MoveEvent struct {
	// Key is the migrated record's storage key (the node id).
	Key uint64
	// From and To are the record's primary slot before and after the move.
	From, To int
	// Reader is the processor whose reads dominated the record's heat;
	// Reads how many storage reads it contributed since the last decay.
	Reader int
	Reads  int64
	// Bytes is the record's stored size.
	Bytes int64
}

// ProcCounters is one processor's share of a Snapshot.
type ProcCounters struct {
	// Proc is the processor slot (stable across epochs; slots are never
	// reused, so departed members keep their row).
	Proc int
	// Status is the member's topology state: "active", "draining", "down"
	// or "left".
	Status string
	// Addr is the member's network address (empty on the virtual-time
	// engine).
	Addr string
	// Assigned counts queries the routing strategy sent here (pre-steal).
	Assigned int64
	// Executed counts queries that actually ran here (post-steal).
	Executed int64
	// Stolen counts dispatches this processor satisfied by stealing. Only
	// the virtual-time engine steals; over TCP it reads 0.
	Stolen int64
	// Diverted counts queries re-routed away because this processor was
	// down when the strategy picked it.
	Diverted int64
	// QueueDepth is this processor's load: queued plus outstanding (handed
	// out, not yet acked) queries and subtasks.
	QueueDepth int64
	// Cache is this processor's cache activity.
	Cache CacheCounters
	// PendingInvalidations is how many rewritten-record keys the networked
	// router still holds for this processor — queued by mutations, riding
	// every query frame sent to it until one is answered — and
	// InvalidationsDelivered how many it has seen confirmed so far. A depth
	// that keeps growing names the processor that is behind: nothing is
	// routed to it, or it stopped answering. Both stay 0 on the virtual-time
	// engine, whose mutations invalidate in place.
	PendingInvalidations   int64
	InvalidationsDelivered int64
}

// Snapshot is the system-wide observability surface: the quantities the
// paper's evaluation is built on (per-processor placement, cache hit
// rates, queue depths, routing decision cost), reported identically by the
// virtual-time engine and the networked deployment. Both start it from the
// same builder, router.Router.Snapshot, and add only what their transport
// alone counts.
type Snapshot struct {
	// Transport names the deployment kind: "local" or "tcp".
	Transport string
	// Policy is the configured routing policy's registered name.
	Policy string
	// Strategy is the live strategy's self-reported name (Strategy.Name).
	Strategy string
	// Processors is the number of active members in the current epoch.
	Processors int
	// Epoch is the topology epoch this snapshot was taken under; every
	// counter below is consistent with that single epoch.
	Epoch uint64
	// Queries counts queries executed through this handle.
	Queries int64
	// Mutations counts graph mutations (node upserts, edge adds/removes)
	// acknowledged through this handle's write path.
	Mutations int64
	// Stolen and Diverted are the system-wide totals (Stolen is 0 over
	// TCP, see ProcCounters.Stolen).
	Stolen   int64
	Diverted int64
	// Reassigned totals the queries moved by topology transitions (see
	// EpochEvent.Reassigned).
	Reassigned int64
	// Epochs is the bounded log of topology transitions, oldest first,
	// processor-tier entries before storage-tier entries (each tier's
	// entries are internally ordered; EpochEvent.Tier tells them apart).
	Epochs []EpochEvent
	// Cache aggregates every processor's cache counters.
	Cache CacheCounters
	// PerProc breaks the counters down by processor.
	PerProc []ProcCounters
	// StorageEpoch is the storage tier's topology epoch; StorageReplicas
	// its replication factor (1 = unreplicated).
	StorageEpoch    uint64
	StorageReplicas int
	// PerStorage breaks the storage tier down by member (empty on
	// deployments that do not expose a storage view).
	PerStorage []StorageCounters
	// Placement is the adaptive-placement planner's activity (all-zero
	// when the subsystem is off); PlacementLog its bounded recent-decision
	// log, oldest first.
	Placement    PlacementCounters
	PlacementLog []MoveEvent
	// RoutingNanos digests per-query routing decision time in nanoseconds
	// (virtual router cost on the local transport, wall time on tcp).
	RoutingNanos Summary
	// QueueDepth digests the destination's load — queued plus outstanding,
	// ProcCounters.QueueDepth — at each routing decision.
	QueueDepth Summary
	// RoutingTableBytes is the memory of what the router routes by: the
	// landmark index and the d(u,p) table under landmark routing, the node
	// coordinates wherever an embedding is held — the paper's
	// preprocessing-storage row (Table 3), and what a router's resident
	// size should be a small multiple of. Zero for the baseline policies.
	RoutingTableBytes int64
	// EmbedDimensions and EmbedProvider describe the coordinate table the
	// router holds, wherever it came from: its width, and the name of the
	// Embedder that supplied it ("learned" for the built-in scheme, "file",
	// "service", a user's). Zero and empty when the router holds none.
	EmbedDimensions int64
	EmbedProvider   string
}

// String renders the snapshot as aligned tables (the same renderer the
// experiment harnesses use for paper-style output).
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "transport=%s policy=%s strategy=%s processors=%d epoch=%d queries=%d stolen=%d diverted=%d reassigned=%d\n",
		s.Transport, s.Policy, s.Strategy, s.Processors, s.Epoch, s.Queries, s.Stolen, s.Diverted, s.Reassigned)
	fmt.Fprintf(&b, "cache: %d hits / %d misses (%.1f%% hit rate), %d inserts, %d evictions\n",
		s.Cache.Hits, s.Cache.Misses, 100*s.Cache.HitRate(), s.Cache.Inserts, s.Cache.Evictions)
	fmt.Fprintf(&b, "routing decision: p50=%dns p99=%dns p999=%dns max=%dns (n=%d)\n",
		s.RoutingNanos.P50, s.RoutingNanos.P99, s.RoutingNanos.P999, s.RoutingNanos.Max, s.RoutingNanos.Count)
	fmt.Fprintf(&b, "queue depth: p50=%d p99=%d p999=%d max=%d\n",
		s.QueueDepth.P50, s.QueueDepth.P99, s.QueueDepth.P999, s.QueueDepth.Max)
	fmt.Fprintf(&b, "routing tables: %d bytes\n", s.RoutingTableBytes)
	if s.EmbedProvider != "" {
		fmt.Fprintf(&b, "embedding: %d dimensions from provider %q\n", s.EmbedDimensions, s.EmbedProvider)
	}
	t := NewTable("proc", "status", "assigned", "executed", "stolen", "diverted", "queue", "hits", "misses", "hit%", "evict", "inval-pend", "inval-done")
	for _, p := range s.PerProc {
		status := p.Status
		if status == "" {
			status = "active"
		}
		t.AddRow(p.Proc, status, p.Assigned, p.Executed, p.Stolen, p.Diverted, p.QueueDepth,
			p.Cache.Hits, p.Cache.Misses, 100*p.Cache.HitRate(), p.Cache.Evictions,
			p.PendingInvalidations, p.InvalidationsDelivered)
	}
	b.WriteString(t.String())
	if len(s.PerStorage) > 0 {
		fmt.Fprintf(&b, "storage: epoch=%d replicas=%d members=%d\n",
			s.StorageEpoch, s.StorageReplicas, len(s.PerStorage))
		ts := NewTable("slot", "status", "keys", "bytes", "gets", "misses", "failovers", "repair")
		for _, m := range s.PerStorage {
			ts.AddRow(m.Slot, m.Status, m.Keys, m.Bytes, m.Gets, m.Misses, m.Failovers, m.RepairBytes)
		}
		b.WriteString(ts.String())
		durable := false
		for _, m := range s.PerStorage {
			if m.Durable != "" {
				durable = true
				break
			}
		}
		if durable {
			td := NewTable("slot", "durable", "wal-bytes", "wal-recs", "snaps", "dur-ver", "replayed", "recover-ms")
			for _, m := range s.PerStorage {
				if m.Durable == "" {
					continue
				}
				td.AddRow(m.Slot, m.Durable, m.WALBytes, m.WALRecords, m.Snapshots,
					m.DurableVersion, m.ReplayedBytes, float64(m.RecoverNanos)/1e6)
			}
			b.WriteString(td.String())
		}
	}
	if s.Placement.Cycles > 0 || s.Placement.Overrides > 0 {
		fmt.Fprintf(&b, "placement: %d cycles, %d/%d moves executed (%d KB, budget %d KB/cycle), %d pinned, skipped %d budget / %d cold\n",
			s.Placement.Cycles, s.Placement.Moved, s.Placement.Planned,
			s.Placement.MovedBytes>>10, s.Placement.BudgetBytes>>10,
			s.Placement.Overrides, s.Placement.SkippedBudget, s.Placement.SkippedCold)
		if len(s.PlacementLog) > 0 {
			tp := NewTable("key", "from", "to", "reader", "reads", "bytes")
			for _, m := range s.PlacementLog {
				tp.AddRow(m.Key, m.From, m.To, m.Reader, m.Reads, m.Bytes)
			}
			b.WriteString(tp.String())
		}
	}
	if len(s.Epochs) > 0 {
		te := NewTable("tier", "epoch", "joined", "left", "failed", "revived", "reassigned")
		for _, e := range s.Epochs {
			tier := e.Tier
			if tier == "" {
				tier = "proc"
			}
			te.AddRow(tier, e.Epoch, e.Joined, e.Left, e.Failed, e.Revived, e.Reassigned)
		}
		b.WriteString(te.String())
	}
	return b.String()
}
