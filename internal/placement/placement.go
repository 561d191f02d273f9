// Package placement implements the workload-adaptive data-placement
// subsystem: a background planner that watches which processor reads which
// record from the storage tier (the per-partition heat the observability
// surface already carries) and plans bounded migrations of hot records
// toward their dominant readers.
//
// The planner is deliberately split from execution. Plan is a pure
// function of the accumulated heat and a deployment surface (Env): it
// decides *what* should move and *where*, applying hysteresis (cold
// records and records without a sufficiently dominant reader never move)
// and a per-cycle byte budget (a migration storm can never starve the
// query path). The deployment — the virtual-time engine, the only one that
// places adaptively — executes each move as a versioned copy-then-tombstone
// relocation and reports the outcome back, so the planner's counters and
// decision log always describe what actually happened. Over TCP every shard
// is equally far from every processor, so a move has no read path to
// shorten there; the networked deployment places by kvstore.Place alone.
//
// This is PHD-Store's incremental redistribution and Peng et al.'s
// workload-based fragmentation (see PAPERS.md) landed on the decoupled
// architecture: compute stays put, data drifts toward it.
package placement

import (
	"sort"

	"repro/internal/metrics"
)

// Heat accumulates storage-read counts per record, attributed to the
// reading processor. Cache hits contribute nothing — a record the caches
// absorb needs no migration. Not safe for concurrent use; its owner, the
// session, guards it.
type Heat struct {
	keys map[uint64]*keyHeat
}

type keyHeat struct {
	total  int64
	byProc map[int]int64
}

// NewHeat returns an empty accumulator.
func NewHeat() *Heat { return &Heat{keys: make(map[uint64]*keyHeat)} }

// Record adds n storage reads of key by processor proc.
func (h *Heat) Record(key uint64, proc int, n int64) {
	if n <= 0 {
		return
	}
	kh := h.keys[key]
	if kh == nil {
		kh = &keyHeat{byProc: make(map[int]int64, 4)}
		h.keys[key] = kh
	}
	kh.total += n
	kh.byProc[proc] += n
}

// Dominant returns key's hottest reader (lowest processor id on ties),
// its read count, and the key's total reads. A key without heat returns
// (-1, 0, 0).
func (h *Heat) Dominant(key uint64) (proc int, reads, total int64) {
	kh := h.keys[key]
	if kh == nil {
		return -1, 0, 0
	}
	proc = -1
	for p, n := range kh.byProc {
		if n > reads || (n == reads && (proc < 0 || p < proc)) {
			proc, reads = p, n
		}
	}
	return proc, reads, kh.total
}

// Decay halves every counter and drops records that cool to zero — the
// exponential forgetting that lets the planner track a moving workload
// instead of its whole history. Call it once per planning cycle.
func (h *Heat) Decay() {
	for key, kh := range h.keys {
		kh.total = 0
		for p, n := range kh.byProc {
			n /= 2
			if n == 0 {
				delete(kh.byProc, p)
				continue
			}
			kh.byProc[p] = n
			kh.total += n
		}
		if kh.total == 0 {
			delete(h.keys, key)
		}
	}
}

// Config tunes the planner's hysteresis and budget.
type Config struct {
	// BudgetBytes bounds the record bytes migrated per cycle (<= 0 means
	// unbounded — the offline re-load baseline).
	BudgetBytes int64
	// MinReads is the heat floor: a record read fewer times than this
	// since the last decay never moves (default 16).
	MinReads int64
	// MinDominance is the share of a record's reads its dominant reader
	// must own before the record chases it (default 0.5). Together with
	// MinReads this is the hysteresis that keeps records from ping-ponging
	// between readers on workload noise.
	MinDominance float64
	// LogSize bounds the recent-decision log (default 32).
	LogSize int
}

func (c Config) withDefaults() Config {
	if c.MinReads == 0 {
		c.MinReads = 16
	}
	if c.MinDominance == 0 {
		c.MinDominance = 0.5
	}
	if c.LogSize == 0 {
		c.LogSize = 32
	}
	return c
}

// Env is the deployment surface a planning cycle consults: where records
// live now, what they cost to move, and which storage slot is "near" each
// processor (the slot whose reads that processor gets cheapest — the
// affinity the cost model and the planner must agree on).
type Env interface {
	// Replicas appends key's current placement set (primary first) to dst.
	Replicas(key uint64, dst []int) []int
	// SizeOf returns key's stored size in bytes (0 when absent).
	SizeOf(key uint64) int
	// NearSlot returns proc's affinity storage slot (-1 when none).
	NearSlot(proc int) int
	// ReplicaTarget returns the tier's replication factor.
	ReplicaTarget() int
}

// Move is one planned migration: pin Key onto the To slots (primary
// first). From, Reader, Reads and Bytes carry the decision's evidence for
// the log.
type Move struct {
	Key    uint64
	To     []int
	From   int
	Reader int
	Reads  int64
	Bytes  int64
}

// Planner owns the accumulated counters and decision log across cycles.
// Not safe for concurrent use.
type Planner struct {
	cfg      Config
	counters metrics.PlacementCounters
	log      []metrics.MoveEvent
}

// New returns a planner with cfg (zero fields take defaults).
func New(cfg Config) *Planner {
	cfg = cfg.withDefaults()
	p := &Planner{cfg: cfg}
	p.counters.BudgetBytes = cfg.BudgetBytes
	return p
}

// Plan runs one planning cycle over the accumulated heat: hot records
// whose dominant reader's near slot is not already their primary are
// proposed for migration, hottest first, until the byte budget runs out.
// The returned moves are deterministic for identical heat and env. The
// caller executes them (Executed reports each outcome back) and then
// calls heat.Decay().
func (p *Planner) Plan(h *Heat, env Env) []Move {
	p.counters.Cycles++
	r := env.ReplicaTarget()
	var cand []Move
	for key := range h.keys {
		reader, reads, total := h.Dominant(key)
		if total < p.cfg.MinReads || reader < 0 ||
			float64(reads) < p.cfg.MinDominance*float64(total) {
			p.counters.SkippedCold++
			continue
		}
		near := env.NearSlot(reader)
		if near < 0 {
			continue
		}
		var arr [8]int
		cur := env.Replicas(key, arr[:0])
		if len(cur) == 0 || cur[0] == near {
			continue // already where its reader wants it
		}
		size := env.SizeOf(key)
		if size == 0 {
			continue // deleted (or unreachable) since the heat accrued
		}
		// Target placement: the reader's near slot becomes the primary;
		// the current replicas fill the remaining slots so the tier keeps
		// its replication factor.
		to := make([]int, 0, r)
		to = append(to, near)
		for _, slot := range cur {
			if len(to) >= r {
				break
			}
			if slot != near {
				to = append(to, slot)
			}
		}
		cand = append(cand, Move{Key: key, To: to, From: cur[0], Reader: reader, Reads: reads, Bytes: int64(size)})
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].Reads != cand[j].Reads {
			return cand[i].Reads > cand[j].Reads
		}
		return cand[i].Key < cand[j].Key
	})
	var picked []Move
	bounded := p.cfg.BudgetBytes > 0
	budget := p.cfg.BudgetBytes
	for _, m := range cand {
		if bounded && m.Bytes > budget {
			p.counters.SkippedBudget++
			continue
		}
		if bounded {
			budget -= m.Bytes
		}
		picked = append(picked, m)
		p.counters.Planned++
	}
	return picked
}

// Executed reports one move's outcome: ok moves advance the counters and
// enter the decision log; failed ones (the record vanished, its target
// left the tier) only count as planned.
func (p *Planner) Executed(m Move, ok bool) {
	if !ok {
		return
	}
	p.counters.Moved++
	p.counters.MovedBytes += m.Bytes
	to := -1
	if len(m.To) > 0 {
		to = m.To[0]
	}
	p.log = append(p.log, metrics.MoveEvent{
		Key: m.Key, From: m.From, To: to,
		Reader: m.Reader, Reads: m.Reads, Bytes: m.Bytes,
	})
	if over := len(p.log) - p.cfg.LogSize; over > 0 {
		p.log = append(p.log[:0], p.log[over:]...)
	}
}

// Counters returns the accumulated counters (Overrides is the caller's to
// fill — only the store knows how many pins are live).
func (p *Planner) Counters() metrics.PlacementCounters { return p.counters }

// Log returns the bounded recent-decision log, oldest first. The returned
// slice is a copy.
func (p *Planner) Log() []metrics.MoveEvent {
	return append([]metrics.MoveEvent(nil), p.log...)
}
