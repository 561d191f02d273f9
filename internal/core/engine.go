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
)

// ProcReport summarises one processor's share of a workload run.
type ProcReport struct {
	Executed int
	Busy     time.Duration
	Cache    cache.Stats
}

// Report is the outcome of a workload run: the quantities every figure in
// Section 4 plots.
type Report struct {
	Policy  string
	Network string
	// Processors is the number of active members in the run's topology
	// view; Epoch identifies that view.
	Processors     int
	Epoch          uint64
	StorageServers int
	Queries        int

	// Makespan is the virtual time at which the last query completed;
	// ThroughputQPS = Queries / Makespan.
	Makespan      time.Duration
	ThroughputQPS float64

	// MeanResponse is the average per-query service latency (routing
	// decision + cache/storage data movement + compute), the paper's
	// "query response time".
	MeanResponse time.Duration
	P50Response  time.Duration
	P95Response  time.Duration
	P99Response  time.Duration

	// CacheHits/CacheMisses follow Eq 8/9: record accesses served from
	// processor caches vs pulled from storage. Touched = Hits + Misses.
	CacheHits   int64
	CacheMisses int64
	Touched     int64
	HitRate     float64

	FetchedBytes int64
	RouterTime   time.Duration
	Stolen       int
	// Diverted counts queries re-routed away from failed processors.
	Diverted int

	PerProc []ProcReport
	Results []query.Result
	// ExecProc records which processor executed each query (indexed by
	// query ID) — the post-stealing placement, useful for locality
	// diagnostics and tests.
	ExecProc []int
	// HitsByID records per-query cache hits (indexed by query ID).
	HitsByID []int64
	Prep     router.PrepStats
}

// RunWorkload executes the queries through a fresh router/processor state
// (cold caches, as in every experiment of Section 4) and returns the
// report. Query IDs must be unique and within [0, len(qs)); the generator
// in package query produces exactly that.
//
// The run executes under the topology view current at the call — a
// processor added with AddProcessor before the call participates from the
// first query — and holds it for the whole workload, so the reported
// numbers belong to exactly one epoch. Live mid-workload transitions are
// a Session/Client behaviour.
func (s *System) RunWorkload(qs []query.Query) (*Report, error) {
	strat, err := s.cfg.Strategy(s.tab) // a fresh one per run: runs share no router state
	if err != nil {
		return nil, err
	}
	view := s.topo.View()
	rt, err := router.NewFromView(strat, view, !s.cfg.DisableStealing)
	if err != nil {
		return nil, err
	}
	seen := make([]bool, len(qs))
	for _, q := range qs {
		if q.ID < 0 || q.ID >= len(qs) || seen[q.ID] {
			return nil, fmt.Errorf("core: query IDs must be unique in [0,%d): bad ID %d", len(qs), q.ID)
		}
		seen[q.ID] = true
		if q.Type.MultiAnchor() {
			// The batch engine's queue/steal loop is single-destination by
			// construction; multi-anchor queries run through a Session,
			// whose wave machinery the experiments drive directly.
			return nil, fmt.Errorf("%w: %v queries require session execution", query.ErrBadQuery, q.Type)
		}
	}

	procs := s.newProcs(view)
	tl := simnet.NewTimeline(s.store.NumServers())
	prof := s.cfg.Network
	// The decision cost is sampled at route time: DecisionUnits is the
	// strategy's to report, and it may depend on the strategy's state.
	decisionCost := func() time.Duration {
		return prof.RouterBase + time.Duration(strat.DecisionUnits())*prof.RouterPerUnit
	}
	costByID := make([]time.Duration, len(qs))

	var routerBusy time.Duration

	rep := &Report{
		Policy:         s.cfg.Policy.String(),
		Network:        prof.Name,
		Processors:     view.NumActive(),
		Epoch:          view.Epoch,
		StorageServers: s.cfg.StorageServers,
		Queries:        len(qs),
		Results:        make([]query.Result, len(qs)),
		ExecProc:       make([]int, len(qs)),
		HitsByID:       make([]int64, len(qs)),
		Prep:           s.tab.Stats,
	}

	slots := view.Slots()
	next := make([]time.Duration, slots) // per-processor availability
	done := make([]bool, slots)
	for i := 0; i < slots; i++ {
		done[i] = !view.IsActive(i)
	}
	var lat metrics.Durations
	var agg execStats
	remaining := len(qs)
	stream := 0 // next workload query to route

	for remaining > 0 {
		// Earliest-available live processor executes next (deterministic
		// tie-break by index).
		p := -1
		for i := range next {
			if done[i] {
				continue
			}
			if p < 0 || next[i] < next[p] {
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
		for rt.QueueLen(p) == 0 && stream < len(qs) {
			dc := decisionCost()
			rt.Route(qs[stream])
			costByID[qs[stream].ID] = dc
			stream++
			routerBusy += dc
		}
		q, ok := rt.Next(p)
		if !ok {
			done[p] = true
			continue
		}
		res, service, st, err := s.execute(procs[p], q, next[p], tl)
		rt.Done(p, 1)
		if err != nil {
			return nil, err
		}
		rep.Results[q.ID] = res
		rep.ExecProc[q.ID] = p
		rep.HitsByID[q.ID] = st.hits
		lat.Add(costByID[q.ID] + service)
		next[p] += service
		agg.add(st)
		remaining--
	}

	for i, pr := range procs {
		r := ProcReport{Executed: rt.Executed()[i], Busy: next[i]}
		if pr != nil {
			r.Cache = pr.cache.Stats()
		}
		rep.PerProc = append(rep.PerProc, r)
		if next[i] > rep.Makespan {
			rep.Makespan = next[i]
		}
	}
	if rep.Makespan > 0 {
		rep.ThroughputQPS = float64(len(qs)) / rep.Makespan.Seconds()
	} else {
		rep.ThroughputQPS = math.Inf(1)
	}
	rep.MeanResponse = lat.Mean()
	rep.P50Response = lat.Percentile(0.5)
	rep.P95Response = lat.Percentile(0.95)
	rep.P99Response = lat.Percentile(0.99)
	rep.CacheHits = agg.hits
	rep.CacheMisses = agg.misses
	rep.Touched = agg.hits + agg.misses
	if rep.Touched > 0 {
		rep.HitRate = float64(agg.hits) / float64(rep.Touched)
	}
	rep.FetchedBytes = agg.fetchedBytes
	rep.RouterTime = routerBusy
	rep.Stolen = rt.Stolen()
	rep.Diverted = rt.Diverted()
	return rep, nil
}

// Session is an interactive handle over a running system: queries execute
// one at a time through the router, processor caches persist between
// calls. Examples and the networked daemon use it; experiments use
// RunWorkload.
//
// A session follows the system's topology: epoch changes made through
// AddProcessor / DrainProcessor / FailProcessor / ReviveProcessor are
// applied atomically at the next Execute or Snapshot, so every query runs
// — and every snapshot reports — under exactly one view.
type Session struct {
	sys     *System
	rt      *router.Router
	view    topology.View
	procs   []*proc
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

// NewSession creates a session with cold caches.
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
	}
	ses.rt.ApplyView(v)
	ses.view = v
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
	prof := ses.sys.cfg.Network
	strat := ses.rt.Strategy()
	decisionCost := prof.RouterBase + time.Duration(strat.DecisionUnits())*prof.RouterPerUnit
	p := ses.rt.Route(q)
	ses.routing.Observe(int64(decisionCost))
	ses.rt.Next(p) // p's queue holds q alone: q is outstanding on p until Done
	res, service, st, err := ses.sys.execute(ses.procs[p], q, ses.now, ses.tl)
	ses.rt.Done(p, 1)
	// Virtual time spent is spent even when the query fails (e.g. a
	// storage replica died and the fetch burned round trips discovering
	// it) — failed queries cost real capacity, which is exactly what the
	// storagefault experiment measures.
	ses.now += service
	ses.stats.add(st)
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
