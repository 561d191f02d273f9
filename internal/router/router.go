package router

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/topology"
)

// Router owns one FIFO queue per processor connection and implements
// query stealing (Requirement 2): "whenever a processor is idle and is
// ready to handle a new query, if it does not have any other requests
// assigned to it, it may steal a request that was originally intended for
// another processor."
//
// Every decision on every engine reads one load per slot (Section 3.2):
// its queued queries plus the work Next and RouteAnchors handed it that the
// caller has not yet acked with Done.
//
// Membership is an epoch-versioned topology.View: slots are stable
// processor ids that only grow, and ApplyView moves the router to a newer
// view atomically — departed members' queued work is re-routed to live
// ones, topology-aware strategies re-derive their assignments, and the
// per-slot counters stay aligned across every epoch.
type Router struct {
	strategy      Strategy
	topoAware     TopologyAware // strategy's optional topology hook, nil if absent
	view          topology.View
	queues        [][]query.Query
	heads         []int             // pop index per queue (amortised O(1) pops)
	outstanding   []int             // per slot: handed out, not yet acked with Done
	loads         []int             // scratch for Route and RouteAnchors: every slot's Load
	depth         metrics.Histogram // the destination's load at each decision
	stealing      bool
	assigned      []int // total queries routed per processor (pre-steal)
	executed      []int // total queries handed out per processor (post-steal)
	stolenBy      []int // dispatches processor p satisfied by stealing
	diverted      []int // queries re-routed away from dead processor p
	stolen        int
	divertedTotal int
	reassigned    int64
	events        []metrics.EpochEvent
}

// New creates a router over procs processor connections — the static
// single-epoch topology. Use ApplyView to move to newer views.
func New(strategy Strategy, procs int, stealing bool) (*Router, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("router: need procs > 0, got %d", procs)
	}
	return NewFromView(strategy, topology.Static(procs), stealing)
}

// NewFromView creates a router over an existing topology view.
func NewFromView(strategy Strategy, v topology.View, stealing bool) (*Router, error) {
	if strategy == nil {
		return nil, fmt.Errorf("router: nil strategy")
	}
	r := &Router{
		strategy: strategy,
		stealing: stealing,
	}
	r.topoAware, _ = strategy.(TopologyAware)
	r.grow(v.Slots())
	r.view = v
	if r.topoAware != nil {
		r.topoAware.SetTopology(v)
	}
	return r, nil
}

// grow extends every slot-indexed array to n slots.
func (r *Router) grow(n int) {
	for len(r.queues) < n {
		r.queues = append(r.queues, nil)
		r.heads = append(r.heads, 0)
		r.outstanding = append(r.outstanding, 0)
		r.loads = append(r.loads, 0)
		r.assigned = append(r.assigned, 0)
		r.executed = append(r.executed, 0)
		r.stolenBy = append(r.stolenBy, 0)
		r.diverted = append(r.diverted, 0)
	}
}

// ApplyView moves the router to a newer topology view atomically: slot
// arrays grow for joined members, statuses update, the strategy's
// topology hook fires, and queries still queued for members that Left are
// re-routed to live ones (the clean-drain property — a leaving processor's
// backlog is not lost and not stolen piecemeal, it is re-dispatched under
// the new view). It returns the number of re-routed queries. Views at or
// below the current epoch are ignored.
func (r *Router) ApplyView(v topology.View) int {
	if v.Epoch <= r.view.Epoch {
		return 0
	}
	r.grow(v.Slots())
	prev := r.view
	r.view = v
	if r.topoAware != nil {
		r.topoAware.SetTopology(v)
	}

	// Re-route the backlog of departed members under the new view. Down
	// members keep their queue — stealing recovers it, exactly as before —
	// but Left members are gone for good, so their queued work is
	// re-dispatched now.
	var strays []query.Query
	for p := range r.queues {
		if v.Status(p) != topology.Left {
			continue
		}
		for {
			q, ok := r.pop(p)
			if !ok {
				break
			}
			strays = append(strays, q)
		}
		r.queues[p] = nil
		r.heads[p] = 0
	}
	for _, q := range strays {
		r.Route(q)
	}
	r.reassigned += int64(len(strays))
	r.events = AppendEpoch(r.events, topology.TierProcessor, prev, v, int64(len(strays)))
	return len(strays)
}

// AppendEpoch appends the prev → next transition of one tier to a bounded
// epoch log and returns the log: the oldest entries drop once it exceeds
// topology.EpochLogCap. Every transition log the stats snapshots carry —
// the router's, and both transports' storage-tier logs — is built here.
func AppendEpoch(log []metrics.EpochEvent, tier topology.Tier, prev, next topology.View, reassigned int64) []metrics.EpochEvent {
	d := topology.DiffViews(prev, next)
	log = append(log, metrics.EpochEvent{
		Tier: tier.String(), Epoch: next.Epoch,
		Joined: d.Joined, Left: d.Left, Failed: d.Failed, Revived: d.Revived,
		Reassigned: reassigned,
	})
	if len(log) > topology.EpochLogCap {
		log = log[len(log)-topology.EpochLogCap:]
	}
	return log
}

// View returns the topology view the router currently operates under.
func (r *Router) View() topology.View { return r.view }

// Epoch returns the router's current topology epoch.
func (r *Router) Epoch() uint64 { return r.view.Epoch }

// Events returns a copy of the bounded topology-transition log, oldest
// first.
func (r *Router) Events() []metrics.EpochEvent {
	return append([]metrics.EpochEvent(nil), r.events...)
}

// Status returns slot p's topology state (Left for slots that never
// existed).
func (r *Router) Status(p int) topology.Status { return r.view.Status(p) }

// Diverted returns how many queries were re-routed away from dead
// processors.
func (r *Router) Diverted() int { return r.divertedTotal }

// Strategy returns the routing strategy in use.
func (r *Router) Strategy() Strategy { return r.strategy }

// QueueLen returns the number of queries waiting for processor p.
func (r *Router) QueueLen(p int) int { return len(r.queues[p]) - r.heads[p] }

// Load returns slot p's load: its queued queries plus its outstanding work.
func (r *Router) Load(p int) int { return r.QueueLen(p) + r.outstanding[p] }

// Done acks n units of work Next or RouteAnchors handed slot p. Their callers
// ack all of it on every exit path, or every later decision sees p too busy.
func (r *Router) Done(p, n int) { r.outstanding[p] -= n }

// Stolen returns how many dispatches were satisfied by stealing.
func (r *Router) Stolen() int { return r.stolen }

// Executed returns a copy of the per-processor dispatch counts (where each
// query actually ran, after stealing).
func (r *Router) Executed() []int { return append([]int(nil), r.executed...) }

// Snapshot starts a stats snapshot with what the router counts, the same on
// both transports: policy (the configured name) and the live strategy, the
// current view's epoch and active members, the steal, diversion and
// re-routing totals with the epoch log, the size of the tables it routes by
// and of c's coordinates, the digest of the destination's load at each
// decision, and one row per slot with its status, its load and where the
// strategy sent queries. The caller adds what only its transport counts:
// executions, caches, storage and the routing-time digest.
func (r *Router) Snapshot(policy string, c Coords) *metrics.Snapshot {
	snap := &metrics.Snapshot{
		Policy:            policy,
		Strategy:          r.strategy.Name(),
		Processors:        r.view.NumActive(),
		Epoch:             r.view.Epoch,
		Stolen:            int64(r.stolen),
		Diverted:          int64(r.divertedTotal),
		Reassigned:        r.reassigned,
		Epochs:            r.Events(),
		PerProc:           make([]metrics.ProcCounters, r.view.Slots()),
		RoutingTableBytes: tableBytes(r.strategy, c.Embedding),
		QueueDepth:        r.depth.Summary(),
	}
	if c.Embedding != nil {
		snap.EmbedDimensions = int64(c.Embedding.D)
		snap.EmbedProvider = c.Source
	}
	for p := range snap.PerProc {
		snap.PerProc[p] = metrics.ProcCounters{
			Proc:       p,
			Status:     r.view.Status(p).String(),
			Assigned:   int64(r.assigned[p]),
			Stolen:     int64(r.stolenBy[p]),
			Diverted:   int64(r.diverted[p]),
			QueueDepth: int64(r.Load(p)),
		}
	}
	return snap
}

// Route decides q's destination under every slot's load and enqueues q
// there; Next hands it out. It returns the chosen processor.
func (r *Router) Route(q query.Query) int {
	p := r.decide(q, r.slotLoads())
	r.depth.Observe(int64(r.Load(p)))
	r.queues[p] = append(r.queues[p], q)
	return p
}

// RouteAnchors routes a multi-anchor query's per-anchor subtasks under every
// slot's load: one destination per anchor. Nothing is enqueued — the
// caller's wave machinery drives subtasks, not the FIFO queues — so each is
// outstanding on its processor at once, until the caller acks it with Done.
func (r *Router) RouteAnchors(q query.Query, anchors []graph.NodeID) []int {
	picks := r.decideAnchors(q, anchors, r.slotLoads())
	for _, p := range picks {
		r.depth.Observe(int64(r.Load(p)))
		r.outstanding[p]++
		r.executed[p]++
	}
	return picks
}

// slotLoads fills the router's scratch with every slot's Load.
func (r *Router) slotLoads() []int {
	for p := range r.queues {
		r.loads[p] = r.Load(p)
	}
	return r.loads
}

// decide is the routing decision: the strategy picks a destination for q
// under loads (Eq 3/7's load term; departed slots' entries are overwritten),
// a pick that is not Active is diverted, the strategy observes the final
// destination and the per-slot counters advance. decide allocates nothing.
// It panics if no processor is alive — an unservable deployment is a caller
// bug.
func (r *Router) decide(q query.Query, loads []int) int {
	r.maskLeft(loads)
	p := r.assign(q, r.strategy.Pick(q, loads), loads)
	r.strategy.Observe(q, p)
	return p
}

// decideAnchors is decide for a multi-anchor query's per-anchor subtasks:
// one destination per anchor, chosen through the strategy's multi-anchor
// hook (PickAnchors — per-anchor routing for the built-ins). Dead picks are
// diverted, and the strategy observes every final destination (so
// cache-model strategies learn where the anchors' neighbourhoods now live).
func (r *Router) decideAnchors(q query.Query, anchors []graph.NodeID, loads []int) []int {
	r.maskLeft(loads)
	picks := PickAnchors(r.strategy, q, anchors, loads)
	for i, p := range picks {
		q2 := q
		if i < len(anchors) {
			q2.Node = anchors[i]
		}
		picks[i] = r.assign(q2, p, loads)
		r.strategy.Observe(q2, picks[i])
	}
	return picks
}

// maskLeft makes departed slots look maximally loaded, so load-driven
// strategies that are not topology-aware steer clear of them without
// inflating the diversion counters.
func (r *Router) maskLeft(loads []int) {
	for p := range loads {
		if r.view.Status(p) == topology.Left {
			loads[p] = 1 << 30
		}
	}
}

// assign turns the strategy's pick for q into its final destination — an
// out-of-range pick is clamped, a pick that is not Active is diverted — and
// counts the assignment.
func (r *Router) assign(q query.Query, p int, loads []int) int {
	if p < 0 || p >= len(r.queues) {
		p = 0
	}
	if !r.view.IsActive(p) {
		r.diverted[p]++
		r.divertedTotal++
		p = r.divert(q, loads)
	}
	r.assigned[p]++
	return p
}

// divert picks the best live processor for q: the closest one when the
// strategy is distance-aware (the paper's "second, third, or so on closest
// processor", §3.4.1 — "a query processor that is down can be replaced
// without affecting the routing strategy", Section 1), the least loaded
// otherwise.
func (r *Router) divert(q query.Query, loads []int) int {
	da, aware := r.strategy.(DistanceAware)
	best, bestScore := -1, 0.0
	for p := range r.queues {
		if !r.view.IsActive(p) {
			continue
		}
		var score float64
		if aware {
			score = da.DistanceTo(q, p)
		} else {
			score = float64(loads[p])
		}
		if best < 0 || score < bestScore {
			best, bestScore = p, score
		}
	}
	if best < 0 {
		panic("router: no live processors")
	}
	return best
}

// Next hands processor p its next query, which stays outstanding on p until
// the caller acks it with Done. When p's own queue is empty and stealing is
// enabled, a query is stolen from another queue, and its load moves to p:
// with a DistanceAware strategy, the pending head closest to p (so the
// stolen work still matches p's cache contents); otherwise the oldest query
// of the longest queue. ok is false when no work remains anywhere (or p's
// queue is empty and stealing is disabled).
//
// Only Active processors get work — not even their own backlog otherwise —
// so ok is always false for down/draining/departed slots; queries queued
// before a failure are recovered by the live processors through stealing.
func (r *Router) Next(p int) (query.Query, bool) {
	if !r.view.IsActive(p) {
		return query.Query{}, false
	}
	q, ok := r.pop(p)
	if !ok && r.stealing {
		if q, ok = r.steal(p); ok {
			r.stolen++
			r.stolenBy[p]++
		}
	}
	if ok {
		r.executed[p]++
		r.outstanding[p]++
	}
	return q, ok
}

// steal takes a query from another slot's queue for p.
func (r *Router) steal(p int) (query.Query, bool) {
	if da, ok := r.strategy.(DistanceAware); ok {
		// Locality-aware steal: take the pending query nearest to p
		// (the router "rearranges the future queries", Section 3.2), so
		// stolen work still matches the thief's cache contents.
		victim, slot := -1, -1
		best := 0.0
		for v := range r.queues {
			for i := r.heads[v]; i < len(r.queues[v]); i++ {
				d := da.DistanceTo(r.queues[v][i], p)
				if victim < 0 || d < best {
					victim, slot, best = v, i, d
				}
			}
		}
		if victim < 0 {
			return query.Query{}, false
		}
		q := r.queues[victim][slot]
		r.queues[victim] = append(r.queues[victim][:slot], r.queues[victim][slot+1:]...)
		return q, true
	}
	// Blind steal: the oldest query of the longest queue.
	victim, longest := -1, 0
	for v := range r.queues {
		if l := r.QueueLen(v); l > longest {
			victim, longest = v, l
		}
	}
	if victim < 0 {
		return query.Query{}, false
	}
	return r.pop(victim)
}

func (r *Router) pop(p int) (query.Query, bool) {
	if r.QueueLen(p) == 0 {
		return query.Query{}, false
	}
	q := r.queues[p][r.heads[p]]
	r.heads[p]++
	// Reclaim space once the consumed prefix dominates, or the queue is empty.
	if r.heads[p] == len(r.queues[p]) || r.heads[p] > 64 && r.heads[p]*2 > len(r.queues[p]) {
		r.queues[p] = append(r.queues[p][:0], r.queues[p][r.heads[p]:]...)
		r.heads[p] = 0
	}
	return q, true
}
