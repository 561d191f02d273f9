package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/traverse"
)

// ProcReport summarises one processor's share of a workload run.
type ProcReport struct {
	Executed int
	Cache    cache.Stats
}

// Report is the outcome of a workload run: the quantities every figure in
// Section 4 plots.
type Report struct {
	Policy string
	// Processors is the number of active members in the run's topology
	// view; Epoch identifies that view.
	Processors int
	Epoch      uint64
	Queries    int

	// Makespan is the virtual time at which the last query completed;
	// ThroughputQPS = Queries / Makespan.
	Makespan      time.Duration
	ThroughputQPS float64

	// MeanResponse is the average per-query service latency (routing
	// decision + cache/storage data movement + compute), the paper's
	// "query response time".
	MeanResponse time.Duration

	// CacheHits/CacheMisses follow Eq 8/9: record accesses served from
	// processor caches vs pulled from storage. Touched = Hits + Misses.
	CacheHits   int64
	CacheMisses int64
	Touched     int64
	HitRate     float64

	Stolen int
	// Diverted counts queries re-routed away from failed processors.
	Diverted int

	PerProc []ProcReport
	Results []query.Result
}

// RunWorkload executes the queries through a fresh session (cold caches, as
// in every experiment of Section 4) and returns the report. It is the
// closed-loop driver of the paper's ack-based router (Section 3.2): the
// earliest-available processor asks for work, the router admits queries
// from the stream only while that processor's queue is empty, and an idle
// processor steals. Every query runs through the session's one dispatch
// step; the driver runs no placement cycles. It admits single-destination
// queries only; multi-anchor kinds run through Session.Execute. Query IDs
// must be unique and within [0, len(qs)); the generator in package query
// produces exactly that.
//
// The run executes under the topology view current at the call — a
// processor added with AddProcessor before the call participates from the
// first query — and holds it for the whole workload, so the reported
// numbers belong to exactly one epoch. Live mid-workload transitions are
// a Session/Client behaviour.
func (s *System) RunWorkload(qs []query.Query) (*Report, error) {
	seen := make([]bool, len(qs))
	for _, q := range qs {
		if q.ID < 0 || q.ID >= len(qs) || seen[q.ID] {
			return nil, fmt.Errorf("core: query IDs must be unique in [0,%d): bad ID %d", len(qs), q.ID)
		}
		seen[q.ID] = true
		if q.Type.MultiAnchor() {
			return nil, fmt.Errorf("%w: %v queries require session execution", query.ErrBadQuery, q.Type)
		}
	}
	ses, err := s.NewSession() // runs share no router or cache state
	if err != nil {
		return nil, err
	}
	done := make([]bool, len(ses.next))
	for i := range done {
		done[i] = !ses.view.IsActive(i)
	}
	costByID := make([]time.Duration, len(qs))
	rep := &Report{
		Policy:     s.cfg.Policy.String(),
		Processors: ses.view.NumActive(),
		Epoch:      ses.view.Epoch,
		Queries:    len(qs),
		Results:    make([]query.Result, len(qs)),
	}
	var respSum time.Duration
	for remaining, stream := len(qs), 0; remaining > 0; {
		// Earliest-available live processor executes next (deterministic
		// tie-break by index).
		p := -1
		for i, at := range ses.next {
			if !done[i] && (p < 0 || at < ses.next[p]) {
				p = i
			}
		}
		if p < 0 {
			return nil, fmt.Errorf("core: %d queries stranded with all processors idle (stealing disabled?)", remaining)
		}
		// Ack-based dispatch (Section 3.2): the router admits queries from
		// the client stream on demand, so per-connection queues stay short
		// and their lengths are a live load signal, exactly as when the
		// paper's router releases the next query on a processor's ack.
		for ses.rt.QueueLen(p) == 0 && stream < len(qs) {
			_, costByID[qs[stream].ID] = ses.route(qs[stream])
			stream++
		}
		q, ok := ses.rt.Next(p)
		if !ok {
			done[p] = true
			continue
		}
		res, service, err := ses.serve(p, q, 0) // closed loop: every query is there from 0
		if err != nil {
			return nil, err
		}
		rep.Results[q.ID] = res
		respSum += costByID[q.ID] + service
		remaining--
	}

	executed := ses.rt.Executed()
	for i, pr := range ses.procs {
		r := ProcReport{Executed: executed[i]}
		if pr != nil {
			r.Cache = pr.cache.Stats()
		}
		rep.PerProc = append(rep.PerProc, r)
		rep.Makespan = max(rep.Makespan, ses.next[i])
	}
	if rep.Makespan > 0 {
		rep.ThroughputQPS = float64(len(qs)) / rep.Makespan.Seconds()
	} else {
		rep.ThroughputQPS = math.Inf(1)
	}
	if len(qs) > 0 {
		rep.MeanResponse = respSum / time.Duration(len(qs))
	}
	rep.CacheHits, rep.CacheMisses = ses.stats.hits, ses.stats.misses
	rep.Touched = rep.CacheHits + rep.CacheMisses
	if rep.Touched > 0 {
		rep.HitRate = float64(rep.CacheHits) / float64(rep.Touched)
	}
	rep.Stolen = ses.rt.Stolen()
	rep.Diverted = ses.rt.Diverted()
	return rep, nil
}

// Session is the virtual-time engine: one router, the processors' states
// and caches, the storage contention timeline and each processor's
// availability. Session.Execute runs one query at a time on the session's
// clock, and the local client wraps it; RunWorkload drives a fresh session
// closed-loop. Processor caches persist between calls.
//
// A session follows the system's topology: epoch changes made through
// AddProcessor / DrainProcessor / FailProcessor / ReviveProcessor are
// applied atomically at the next Execute or Snapshot, so every query runs
// — and every snapshot reports — under exactly one view.
type Session struct {
	sys   *System
	rt    *router.Router
	view  topology.View
	procs []*proc
	// next is each processor slot's availability: the virtual time its
	// last dispatched work completes. A serial session keeps every entry
	// at or below now.
	next    []time.Duration
	tl      *simnet.Timeline
	now     time.Duration
	stats   execStats
	count   int
	routing metrics.Histogram // virtual routing decision cost per query (ns)

	// Multi-anchor execution counters (see MultiStats).
	multiSubtasks   int64
	multiWaves      int64
	multiMaxVisited int

	// Write path + adaptive placement (nil/zero unless enabled).
	mutations int64
	heat      *placement.Heat
	planner   *placement.Planner
	sinceTick int
}

// NewSession creates a session with cold caches: a fresh router over a
// fresh strategy under the current view, cold processors, an idle
// timeline.
func (s *System) NewSession() (*Session, error) {
	strat, err := s.cfg.Strategy(s.tab)
	if err != nil {
		return nil, err
	}
	view := s.topo.View()
	rt, err := router.NewFromView(strat, view, !s.cfg.DisableStealing)
	if err != nil {
		return nil, err
	}
	ses := &Session{
		sys:   s,
		rt:    rt,
		view:  view,
		procs: s.newProcs(view),
		next:  make([]time.Duration, view.Slots()),
		tl:    simnet.NewTimeline(s.store.NumServers()),
	}
	if s.cfg.AdaptivePlacement {
		ses.heat = placement.NewHeat()
		ses.planner = placement.New(placement.Config{
			BudgetBytes: s.cfg.PlacementBudget,
			MinReads:    s.cfg.PlacementMinReads,
		})
		for _, p := range ses.procs {
			if p != nil {
				p.heat = ses.heat
			}
		}
	}
	return ses, nil
}

// applyTopology brings the session up to the system's current epoch:
// joined members get fresh (cold-cache) processor state, departed members
// drop theirs, and the router re-routes any backlog queued for members
// that left. Failed members keep their caches, so a revive resumes warm.
func (ses *Session) applyTopology() {
	if ses.sys.topo.Epoch() == ses.view.Epoch {
		return
	}
	v := ses.sys.topo.View()
	for slot := range v.Members {
		st := v.Status(slot)
		if slot < len(ses.procs) {
			if st == topology.Left {
				ses.procs[slot] = nil // cache released with the member
			}
			continue
		}
		var p *proc
		if st != topology.Left {
			p = ses.sys.newProc(slot)
			p.heat = ses.heat
		}
		ses.procs = append(ses.procs, p)
		ses.next = append(ses.next, 0)
	}
	ses.rt.ApplyView(v)
	ses.view = v
}

// decisionCost is what one routing decision costs on the virtual clock,
// sampled when the decision is made: DecisionUnits is the strategy's to
// report, and it may depend on the strategy's state.
func (ses *Session) decisionCost() time.Duration {
	prof := ses.sys.cfg.Network
	return prof.RouterBase + time.Duration(ses.rt.Strategy().DecisionUnits())*prof.RouterPerUnit
}

// route is the session's routing step: it prices the decision and routes q
// onto a processor's queue, returning the processor and the decision's
// cost.
func (ses *Session) route(q query.Query) (int, time.Duration) {
	cost := ses.decisionCost()
	p := ses.rt.Route(q)
	ses.routing.Observe(int64(cost))
	return p, cost
}

// serve is the session's dispatch step: processor p runs q, which it took
// from the router, starting once both q has arrived (at) and p is free.
// The query is acked, p's availability advances and the data movement is
// booked whether or not it succeeds — virtual time spent is spent even
// when the query fails (e.g. a storage replica died and the fetch burned
// round trips discovering it), which is exactly what the storagefault
// experiment measures.
func (ses *Session) serve(p int, q query.Query, at time.Duration) (query.Result, time.Duration, error) {
	var lf traverse.LabelFilter
	if q.CountLabel != "" {
		lf.On = true
		lf.Label, lf.Known = ses.sys.g.LabelID(q.CountLabel)
	}
	start := max(at, ses.next[p])
	f := ses.fetcher(p, start)
	res, err := f.p.kernel.Run(f, q, lf)
	ses.rt.Done(p, 1)
	ses.next[p] = f.now
	ses.stats.add(f.st)
	return res, f.now - start, err
}

// Execute routes and runs one query, returning its result and virtual
// service latency. Malformed queries are rejected with an error wrapping
// query.ErrBadQuery, the same typed error every transport returns.
func (ses *Session) Execute(q query.Query) (query.Result, time.Duration, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, 0, err
	}
	ses.applyTopology()
	q.ID = ses.count
	if q.Type.MultiAnchor() {
		return ses.executeMulti(q)
	}
	p, _ := ses.route(q)
	ses.rt.Next(p) // p's queue holds q alone: q is outstanding on p until served
	res, service, err := ses.serve(p, q, ses.now)
	ses.now += service
	if err != nil {
		return query.Result{}, service, err
	}
	ses.queryDone()
	return res, service, nil
}

// queryDone is how every successfully executed query ends, single-seed or
// multi-anchor: it counts, and every PlacementEvery queries an
// adaptive-placement cycle runs.
func (ses *Session) queryDone() {
	ses.count++
	if every := ses.sys.cfg.PlacementEvery; every > 0 && ses.planner != nil {
		ses.sinceTick++
		if ses.sinceTick >= every {
			ses.sinceTick = 0
			ses.PlacementTick()
		}
	}
}

// Stats returns the session's cumulative cache accounting.
func (ses *Session) Stats() (hits, misses int64) {
	return ses.stats.hits, ses.stats.misses
}

// Queries returns how many queries the session has executed successfully.
func (ses *Session) Queries() int { return ses.count }

// Now returns the session's current virtual time: the cumulative service
// time of every query executed (including the cost of failed attempts).
func (ses *Session) Now() time.Duration { return ses.now }

// SetStorageDelay injects d of extra link latency on every fetch served
// by storage slot (0 clears it) — the chaos framework's slow-link fault.
// Latency only: the slow shard still answers, it just answers late.
func (ses *Session) SetStorageDelay(slot int, d time.Duration) {
	ses.tl.SetDelay(slot, d)
}

// Snapshot assembles the session's observability counters: the router's
// half (router.Router.Snapshot, the builder the networked router shares)
// plus what this engine counts — executions, cache activity, the
// routing-decision digest and each storage shard's row
// (kvstore.Shard.Counters). The snapshot is taken under a single topology
// view — the system's current epoch, applied first — so its counters never
// mix two epochs.
func (ses *Session) Snapshot() *metrics.Snapshot {
	ses.applyTopology()
	snap := ses.rt.Snapshot(ses.sys.cfg.Policy.String(), ses.sys.tab.Coords)
	snap.Transport = "local"
	snap.Queries = int64(ses.count)
	snap.Mutations = ses.mutations
	snap.RoutingNanos = ses.routing.Summary()
	executed := ses.rt.Executed()
	for i, p := range ses.procs {
		pc := &snap.PerProc[i]
		pc.Executed = int64(executed[i])
		if p != nil {
			pc.Cache = p.cache.Stats().Counters()
		}
		snap.Cache.Add(pc.Cache)
	}
	// Storage tier: membership, replication factor, per-member shard
	// counters and the tier-tagged transition log.
	sv := ses.sys.store.View()
	snap.StorageEpoch = sv.Epoch
	snap.StorageReplicas = ses.sys.store.Replicas()
	for _, m := range sv.Members {
		sc := ses.sys.store.Counters(m.Slot)
		sc.Slot, sc.Status = m.Slot, m.Status.String()
		snap.PerStorage = append(snap.PerStorage, sc)
	}
	if ses.planner != nil {
		pc := ses.planner.Counters()
		pc.Overrides = ses.sys.store.Moves().Overrides
		snap.Placement = pc
		snap.PlacementLog = ses.planner.Log()
	}
	snap.Epochs = append(snap.Epochs, ses.sys.storageEventLog()...)
	return snap
}
