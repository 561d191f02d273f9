package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	grouting "repro"
	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/mquery"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/rpc"
)

// Probe sizes: enough samples for a p99 with ten beyond it, small enough
// that the traced run stays inside the contract's time cap.
const (
	traceQueries = 2000
	pingCount    = 2000
	idleRate     = 200.0 // op/s of the idle open-loop probe
	idleSeconds  = 2.0
	batchSize    = 64
	microOps     = 20000 // iterations of each in-process micro-probe
)

func recordBytes(g *grouting.Graph, u grouting.NodeID) int64 {
	return int64(len(gstore.Encode(nil, gstore.RecordOf(g, u))))
}

// fetchBall is the set a point query on q fetches: its node and
// everything within the query's hops along its direction.
func fetchBall(g *grouting.Graph, q grouting.Query) []graph.NodeID {
	return append([]graph.NodeID{q.Node}, g.KHopNeighborhood(q.Node, q.Hops, q.Dir)...)
}

// evictBall is a superset of every record any execution of q can touch:
// the undirected ball of every anchor and of the target.
func evictBall(g *grouting.Graph, q grouting.Query) []uint64 {
	seen := map[graph.NodeID]bool{}
	centres := append([]graph.NodeID(nil), q.AnchorNodes()...)
	if q.Target != 0 {
		centres = append(centres, q.Target)
	}
	for _, c := range centres {
		seen[c] = true
		for _, v := range g.KHopNeighborhood(c, q.Hops, graph.Both) {
			seen[v] = true
		}
	}
	keys := make([]uint64, 0, len(seen))
	for v := range seen {
		keys = append(keys, uint64(v))
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}

// sampleIndex spreads n trace samples over the query list in list order,
// so the hotspot grouping of consecutive queries survives sampling.
func sampleIndex(k, n, total int) int {
	if total >= n {
		return k * total / n
	}
	return k % total
}

// directExec sends q straight to one processor, bypassing the router: the
// query itself for the point kinds, the plan's first wave of subtasks for
// the multi-anchor kinds.
func directExec(ctx context.Context, pool *rpc.Pool, q grouting.Query) error {
	ex := &rpc.ExecRequest{}
	if q.Type.MultiAnchor() {
		pl, err := mquery.NewPlan(q, nil)
		if err != nil {
			return err
		}
		if len(pl.Subtasks) == 0 {
			return nil
		}
		ex.Subtasks = pl.Subtasks
	} else {
		ex.Queries = []query.Query{q}
	}
	resp, err := pool.Call(ctx, &rpc.Request{Op: rpc.OpExecute, Exec: ex})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("processor %s: %s", pool.Addr(), resp.Err)
	}
	return nil
}

// probeSerial runs the one-at-a-time probes that must see the deployment
// before the loaded phases disturb it: the untraced serial round trip, the
// traced sweep and its replays, the idle open loop, a batch, and pings.
func probeSerial(ctx context.Context, c *cluster, in *inputs, d *driver, local *localLayers, tr *tracer, m measured) error {
	n := traceQueries
	g := in.g

	// Serial sweeps, one client and one in flight: every block of
	// sweepBlock sampled queries runs once untraced and once with a root
	// span around each query, the order alternating from block to block, so
	// that drift of the shared machine lands on both sides alike. The ratio
	// of the two totals is what recording spans costs.
	const sweepBlock = 100
	rtts := make([]float64, 0, n)
	roots := make([]int, n)
	var untraced, traced time.Duration
	plain := func(lo, hi int) error {
		t0 := time.Now()
		for k := lo; k < hi; k++ {
			qi := sampleIndex(k, n, len(in.queries))
			s := time.Now()
			res, err := c.client.Execute(ctx, in.queries[qi])
			rtts = append(rtts, float64(time.Since(s))/1e3)
			if err != nil || res != in.want[qi] {
				return fmt.Errorf("serial sweep: query %d answered %+v, %v; oracle says %+v", qi, res, err, in.want[qi])
			}
		}
		untraced += time.Since(t0)
		return nil
	}
	spanned := func(lo, hi int) error {
		t0 := time.Now()
		for k := lo; k < hi; k++ {
			qi := sampleIndex(k, n, len(in.queries))
			var res grouting.Result
			id, _, err := tr.timed(k, 0, "client.execute", func() (err error) {
				res, err = c.client.Execute(ctx, in.queries[qi])
				return err
			})
			if err != nil || res != in.want[qi] {
				return fmt.Errorf("traced sweep: query %d answered %+v, %v; oracle says %+v", qi, res, err, in.want[qi])
			}
			roots[k] = id
		}
		traced += time.Since(t0)
		return nil
	}
	for lo := 0; lo < n; lo += sweepBlock {
		first, second := plain, spanned
		if lo/sweepBlock%2 == 1 {
			first, second = spanned, plain
		}
		hi := min(lo+sweepBlock, n)
		if err := first(lo, hi); err != nil {
			return err
		}
		if err := second(lo, hi); err != nil {
			return err
		}
	}
	sort.Float64s(rtts)
	m["client.serial_rtt_us"] = quantile(rtts, 0.5)
	m["trace.overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()

	// Replays: for every sampled query, direct calls into each layer.
	sc, err := rpc.DialStorageReplicated(c.storage, in.w.replicas)
	if err != nil {
		return err
	}
	defer sc.Close()
	pools := make([]*rpc.Pool, len(c.procs))
	for i, a := range c.procs {
		pools[i] = rpc.NewPool(a, 1)
		defer pools[i].Close()
	}
	pingPool := rpc.NewPool(c.storage[0], 1)
	defer pingPool.Close()
	rt, err := router.New(local.strats[in.w.policy], numProcessors, true)
	if err != nil {
		return err
	}
	var hop, self []float64
	for k := 0; k < n; k++ {
		qi := sampleIndex(k, n, len(in.queries))
		q := in.queries[qi]
		pool := pools[k%len(pools)]
		ball := fetchBall(g, q)

		// Tree 1, the query as served: route, then execute out of cache.
		tr.timed(k, roots[k], "router.route", func() error { //nolint:errcheck // in-process, cannot fail
			p := rt.Route(q)
			rt.Next(p)
			return nil
		})
		if q.Type.MultiAnchor() {
			local.traceMulti(tr, k, roots[k], q)
		}
		if err := directExec(ctx, pool, q); err != nil { // untimed: fills this processor's cache
			return err
		}
		warmID, warm, err := tr.timed(k, roots[k], "processor.execute", func() error { return directExec(ctx, pool, q) })
		if err != nil {
			return err
		}
		tr.timed(k, warmID, "cache.get", func() error { local.cacheGets(ball); return nil }) //nolint:errcheck // in-process
		rootDur := float64(tr.spans[roots[k]-1].EndNS-tr.spans[roots[k]-1].StartNS) / 1e3
		hop = append(hop, rootDur-float64(warm)/1e3)

		// Tree 2, the miss path: the same execution after evicting
		// everything it can touch, and the storage fetch it then pays.
		if _, err := pool.Call(ctx, &rpc.Request{Op: rpc.OpEvict, Keys: evictBall(g, q)}); err != nil {
			return err
		}
		coldID, cold, err := tr.timed(k, 0, "processor.execute_cold", func() error { return directExec(ctx, pool, q) })
		if err != nil {
			return err
		}
		mgID, mg, err := tr.timed(k, coldID, "storage.multiget", func() error {
			recs, err := sc.MultiGet(ctx, ball)
			if err == nil && len(recs) != len(ball) {
				err = fmt.Errorf("multiget returned %d of %d records", len(recs), len(ball))
			}
			return err
		})
		if err != nil {
			return err
		}
		if _, _, err := tr.timed(k, mgID, "rpc.ping", func() error { return pingPool.Ping(ctx) }); err != nil {
			return err
		}
		if _, _, err := tr.timed(k, mgID, "gstore.fetch", func() error { return local.fetch(ball) }); err != nil {
			return err
		}
		self = append(self, float64(cold-mg)/1e3)

		// The cost model's view of the same query, as its own root.
		if _, _, err := tr.timed(k, 0, "core.execute", func() error { return local.coreExecute(qi) }); err != nil {
			return err
		}
	}
	sort.Float64s(hop)
	sort.Float64s(self)
	warm := durations(tr.spans, "processor.execute")
	m["router.hop_us_p50"] = quantile(hop, 0.5)
	m["processor.exec_warm_us_p50"] = quantile(warm, 0.5)
	m["processor.exec_warm_us_p99"] = quantile(warm, 0.99)
	m["processor.exec_cold_us_p50"] = quantile(durations(tr.spans, "processor.execute_cold"), 0.5)
	m["processor.self_us_p50"] = quantile(self, 0.5)
	mg := durations(tr.spans, "storage.multiget")
	m["storage.multiget_us_p50"] = quantile(mg, 0.5)
	m["storage.multiget_us_p99"] = quantile(mg, 0.99)
	m["storage.failovers"] = float64(sc.Failovers())

	// Idle open loop: at 200 op/s nothing queues, so its median over the
	// serial round trip is what the generator itself adds.
	idle := runOpen(ctx, readsOnly(d), idleRate, time.Duration(idleSeconds*float64(time.Second)), maxInflight)
	if _, failed := idle.counts(); failed > 0 {
		return fmt.Errorf("idle probe: %d wrong answers", failed)
	}
	m["client.idle_p50_ratio"] = summarizeOpen(idle.samples, nil).p50MS * 1000 / m["client.serial_rtt_us"]

	// One ExecuteBatch of 64 queries, repeated.
	var batchUS []float64
	for rep := 0; rep < 20; rep++ {
		qs := make([]grouting.Query, batchSize)
		for i := range qs {
			qs[i] = in.queries[(rep*batchSize+i)%len(in.queries)]
		}
		s := time.Now()
		res, err := c.client.ExecuteBatch(ctx, qs)
		batchUS = append(batchUS, float64(time.Since(s))/1e3/batchSize)
		if err != nil {
			return fmt.Errorf("batch probe: %w", err)
		}
		for i := range qs {
			if res[i] != in.want[(rep*batchSize+i)%len(in.queries)] {
				return fmt.Errorf("batch probe: wrong answer at %d", i)
			}
		}
	}
	m["client.batch64_us_per_query"] = median(batchUS)

	// Pings: the smallest frame, serial and then pipelined on one Conn.
	pings := make([]float64, 0, pingCount)
	for i := 0; i < pingCount; i++ {
		s := time.Now()
		if err := pingPool.Ping(ctx); err != nil {
			return err
		}
		pings = append(pings, float64(time.Since(s))/1e3)
	}
	sort.Float64s(pings)
	m["rpc.ping_rtt_p50_us"] = quantile(pings, 0.5)
	m["rpc.ping_rtt_p99_us"] = quantile(pings, 0.99)
	cn, err := rpc.DialContext(ctx, c.storage[0])
	if err != nil {
		return err
	}
	defer cn.Close()
	var done atomic.Int64
	var wg sync.WaitGroup
	const pipeFor = 500 * time.Millisecond
	s := time.Now()
	for k := 0; k < nproc(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp rpc.Response
			for time.Since(s) < pipeFor {
				if cn.CallInto(ctx, &rpc.Request{Op: rpc.OpPing}, &resp) != nil {
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	m["rpc.pipelined_pings_per_s"] = float64(done.Load()) / time.Since(s).Seconds()

	local.traceCounts(tr)
	return nil
}

// readsOnly is d without the mutating mix, so that the idle probe can
// run before the timed phases without moving the graph.
func readsOnly(d *driver) *driver { return &driver{in: d.in, cl: d.cl} }

// localLayers holds the in-process instances of the layers the replays
// and micro-probes call into: a loaded storage tier, a record cache, the
// decoded records, and a virtual-time system on the same inputs.
type localLayers struct {
	in   *inputs
	tier *gstore.Tier
	lru  *cache.LRU[gstore.Record]
	recs map[graph.NodeID]gstore.Record
	dst  []gstore.FetchResult
	ses  *grouting.Session

	// strats are the three routing strategies as rpc.BuildStrategy makes
	// them; emb is the embedding behind the embed one.
	strats                      map[string]router.Strategy
	emb                         *grouting.Embedding
	landmarkBuildS, embedBuildS float64

	// multi-anchor and cost-model accounting over the traced queries
	multiQueries, subtasks, waves int
	maxVisitedOverBudget          float64
	virtualUS                     float64
	coreHits0, coreMisses0        int64
}

// newLocalLayers builds the in-process layers. Building the strategies is
// the routing preprocessing itself, so it is timed here: landmark.build_s
// is the landmark policy's build, embed.build_s what the embed policy adds
// to it (or the artifact's build, on the workload that ships one).
func newLocalLayers(in *inputs) (*localLayers, error) {
	st, err := kvstore.New(numStorage, kvstore.MurmurPlacer{})
	if err != nil {
		return nil, err
	}
	gstore.Load(st, in.g)
	l := &localLayers{
		in:     in,
		tier:   gstore.NewTier(st),
		lru:    cache.New[gstore.Record](bigCache),
		recs:   map[graph.NodeID]gstore.Record{},
		strats: map[string]router.Strategy{},
		emb:    in.emb,
	}
	for _, policy := range []string{"hash", "landmark", "embed"} {
		t0 := time.Now()
		strat, emb, err := rpc.BuildStrategyEmbed(policy, in.g, numProcessors, 1, l.emb)
		if err != nil {
			return nil, fmt.Errorf("build %s strategy: %w", policy, err)
		}
		built := time.Since(t0).Seconds()
		l.strats[policy] = strat
		switch policy {
		case "landmark":
			l.landmarkBuildS = built
		case "embed":
			l.embedBuildS = built - l.landmarkBuildS
			if in.emb != nil {
				l.embedBuildS = in.embedBuildS
			}
			l.emb = emb
		}
	}
	return l, nil
}

// fetch is one batched fetch of ids from the in-process tier.
func (l *localLayers) fetch(ids []graph.NodeID) error {
	if cap(l.dst) < len(ids) {
		l.dst = make([]gstore.FetchResult, len(ids))
	}
	return l.tier.FetchBatchInto(ids, l.dst[:len(ids)], nil)
}

// record returns u's record as the storage tier would decode it.
func (l *localLayers) record(u graph.NodeID) (gstore.Record, bool) {
	if r, ok := l.recs[u]; ok {
		return r, true
	}
	r, ok, err := l.tier.Fetch(u)
	if err != nil || !ok {
		return gstore.Record{}, false
	}
	l.recs[u] = r
	return r, true
}

// memFetch is the mquery.Fetch over the in-process tier.
func (l *localLayers) memFetch(ids []graph.NodeID) (map[graph.NodeID]gstore.Record, error) {
	out := make(map[graph.NodeID]gstore.Record, len(ids))
	for _, id := range ids {
		if r, ok := l.record(id); ok {
			out[id] = r
		}
	}
	return out, nil
}

// cacheGets looks every ball record up in the in-process LRU, inserting
// on a miss exactly as the processor does.
func (l *localLayers) cacheGets(ball []graph.NodeID) {
	for _, u := range ball {
		if _, ok := l.lru.Get(uint64(u)); ok {
			continue
		}
		if r, ok := l.record(u); ok {
			l.lru.Put(uint64(u), r, int64(16+8*(len(r.Out)+len(r.In))))
		}
	}
}

// runSpan names the span of one subtask execution by its kind.
var runSpan = map[mquery.Kind]string{
	mquery.KindPattern: "mquery.run.pattern",
	mquery.KindReach:   "mquery.run.reach",
	mquery.KindKNN:     "mquery.run.knn",
}

// traceMulti replays a multi-anchor query's plan, waves and merge against
// the in-process tier, one span per step, and keeps the wave accounting.
func (l *localLayers) traceMulti(tr *tracer, qid, parent int, q grouting.Query) {
	var pl *mquery.Plan
	tr.timed(qid, parent, "mquery.plan", func() (err error) { //nolint:errcheck // generated queries always plan
		pl, err = mquery.NewPlan(q, nil)
		return err
	})
	if pl == nil {
		return
	}
	l.multiQueries++
	mg := mquery.NewMerger(pl)
	wave := pl.Subtasks
	for len(wave) > 0 {
		l.waves++
		var parts []mquery.Partial
		for _, st := range wave {
			l.subtasks++
			var p mquery.Partial
			tr.timed(qid, parent, runSpan[st.Kind], func() (err error) { //nolint:errcheck // in-memory fetch cannot fail
				p, _, err = mquery.Run(st, l.memFetch)
				return err
			})
			parts = append(parts, p)
			if st.Kind == mquery.KindReach && st.Budget > 0 {
				l.maxVisitedOverBudget = max(l.maxVisitedOverBudget, float64(p.Visited)/float64(st.Budget))
			}
		}
		tr.timed(qid, parent, "mquery.merge", func() error { //nolint:errcheck // partials come from Run
			for _, p := range parts {
				if err := mg.Absorb(p); err != nil {
					return err
				}
			}
			wave = mg.NextWave()
			if len(wave) == 0 {
				mg.Result()
			}
			return nil
		})
		if mg.Found() {
			break
		}
	}
}

// coreExecute runs query qi on the virtual-time engine, building the
// system on first use with the workload's policy, cache and tiers.
func (l *localLayers) coreExecute(qi int) error {
	if l.ses == nil {
		w := l.in.w
		policy, err := grouting.ParsePolicy(w.policy)
		if err != nil {
			return err
		}
		cacheB := int64(bigCache)
		if w.cacheDivisor > 0 {
			cacheB = l.in.storedBytes / w.cacheDivisor / numProcessors
		}
		opts := []grouting.Option{
			grouting.WithProcessors(numProcessors), grouting.WithStorageServers(numStorage),
			grouting.WithPolicy(policy), grouting.WithCacheBytes(cacheB),
			grouting.WithLandmarks(prepLandmarks), grouting.WithMinSeparation(prepMinSep),
			grouting.WithDimensions(prepDims), grouting.WithSeed(1),
		}
		if l.emb != nil {
			opts = append(opts, grouting.WithEmbedProvider(grouting.NewFileProvider(l.emb)))
		}
		sys, err := grouting.New(l.in.g, opts...)
		if err != nil {
			return err
		}
		if l.ses, err = sys.NewSession(); err != nil {
			return err
		}
		// One warm pass, as the deployment had, so that both hit rates
		// describe the steady state.
		for _, q := range l.in.queries {
			if _, _, err := l.ses.Execute(q); err != nil {
				return err
			}
		}
		l.coreHits0, l.coreMisses0 = l.ses.Stats()
	}
	res, virt, err := l.ses.Execute(l.in.queries[qi])
	l.virtualUS += float64(virt) / 1e3
	if err == nil && res != l.in.want[qi] {
		err = fmt.Errorf("core engine disagrees with the oracle on query %d", qi)
	}
	return err
}

func (l *localLayers) traceCounts(tr *tracer) {
	tr.counts["mquery.queries"] = float64(l.multiQueries)
	tr.counts["mquery.subtasks"] = float64(l.subtasks)
	tr.counts["mquery.waves"] = float64(l.waves)
	tr.counts["mquery.max_visited_over_budget"] = l.maxVisitedOverBudget
	tr.counts["trace.queries"] = traceQueries
	tr.counts["core.virtual_us"] = l.virtualUS
	if l.ses != nil {
		hits, misses := l.ses.Stats()
		hits, misses = hits-l.coreHits0, misses-l.coreMisses0
		tr.counts["core.hit_rate"] = ratio(float64(hits), float64(hits+misses))
	}
}

// phaseDeltas carries what the timed phases of a traced run observed.
type phaseDeltas struct {
	closed, open      *phase
	openStats         openStats
	use0, use1        map[string]procUsage
	useEnd            map[string]procUsage
	st0, st1          grouting.Stats
	mallocs, bytes    float64
	attempted, failed int64
}

// probeLayers fills in every per-layer metric probeSerial did not: the
// counter deltas of the loaded phases and the in-process micro-probes.
func probeLayers(ctx context.Context, c *cluster, in *inputs, d *driver, local *localLayers, ph phaseDeltas, tr *tracer, m measured) error {
	_, closedFailed := ph.closed.counts()
	ops := float64(len(ph.closed.samples)) - float64(closedFailed)
	kop := ops / 1000

	// client
	m["client.gen_lag_p50_us"] = ph.openStats.lagP50US
	m["client.gen_lag_p99_us"] = ph.openStats.lagP99US
	m["client.lat_p999_ms"] = ph.openStats.p999MS
	m["client.lat_max_ms"] = ph.openStats.maxMS
	m["client.p99_blocks"] = float64(ph.openStats.p99Blocks)
	m["client.allocs_per_op"] = ph.mallocs / ops
	m["client.bytes_per_op"] = ph.bytes / ops
	m["client.err_rate"] = float64(ph.failed) / float64(ph.attempted)

	// router, cache, storage: Stats() deltas over the closed loop
	s0, s1 := ph.st0, ph.st1
	m["router.routing_ns_p50"] = float64(s1.RoutingNanos.P50)
	m["router.routing_ns_p99"] = float64(s1.RoutingNanos.P99)
	m["router.queue_depth_p99"] = float64(s1.QueueDepth.P99)
	var maxExec, sumExec float64
	for i, p := range s1.PerProc {
		e := float64(p.Executed)
		if i < len(s0.PerProc) {
			e -= float64(s0.PerProc[i].Executed)
		}
		sumExec += e
		if e > maxExec {
			maxExec = e
		}
	}
	m["router.imbalance"] = ratio(maxExec, sumExec/float64(len(s1.PerProc)))
	m["router.stolen_per_kop"] = float64(s1.Stolen-s0.Stolen) / kop
	m["router.diverted_per_kop"] = float64(s1.Diverted-s0.Diverted) / kop
	dc := cacheDelta(s1.Cache, s0.Cache)
	m["cache.hit_rate"] = dc.HitRate()
	m["cache.evictions_per_kop"] = float64(dc.Evictions) / kop
	m["cache.inserts_per_kop"] = float64(dc.Inserts) / kop
	m["cache.rejected_per_kop"] = float64(dc.Rejected) / kop
	m["cache.fill"] = ratio(float64(s1.Cache.CurrentBytes), float64(s1.Cache.CapacityBytes))
	var maxGets, sumGets, snaps float64
	for i, sh := range s1.PerStorage {
		gets := float64(sh.Gets)
		if i < len(s0.PerStorage) {
			gets -= float64(s0.PerStorage[i].Gets)
		}
		sumGets += gets
		if gets > maxGets {
			maxGets = gets
		}
		snaps += float64(sh.Snapshots)
	}
	m["storage.gets_per_op"] = sumGets / ops
	m["storage.shard_skew"] = ratio(maxGets, sumGets/float64(len(s1.PerStorage)))
	m["storage.load_s"] = c.times.Load
	m["kvstore.snapshots"] = snaps

	// per-role CPU over the closed loop, peak memory at the end
	for _, role := range []string{"router", "processor", "storage"} {
		m[role+".cpu_us_per_op"] = (ph.use1[role].cpuS - ph.use0[role].cpuS) * 1e6 / ops
		m[role+".rss_mb"] = ph.useEnd[role].hwmMB
	}
	// The whole-phase mean, WAL appends and snapshot compactions included:
	// the end-to-end io_bytes_per_op is the median window and leaves the
	// compaction bursts out.
	m["storage.io_bytes_per_op"] = (ph.use1["storage"].ioBytes - ph.use0["storage"].ioBytes) / ops

	// mutate: the writes (and, beside them, the reads) of the open loop
	wr := summarizeOpen(ph.open.samples, func(s sample) bool { return s.kind == opWrite })
	rd := summarizeOpen(ph.open.samples, func(s sample) bool { return s.kind == opRead })
	m["mutate.lat_p50_ms"] = wr.p50MS
	m["mutate.lat_p99_ms"] = wr.p99AllMS
	m["read.lat_p50_ms"] = rd.p50MS
	var applied float64
	for _, s := range ph.closed.samples {
		if s.kind == opWrite && s.ok {
			applied++
		}
	}
	m["mutate.applied_per_s"] = applied / ph.closed.elapsedS
	if err := probeWAL(ctx, c, in, d, m); err != nil {
		return err
	}

	// set-up breakdown
	m["setup.gen_s"] = c.times.Gen
	m["setup.spawn_s"] = c.times.Spawn
	m["setup.load_s"] = c.times.Load
	m["setup.prep_s"] = c.times.Prep
	m["setup.warm_s"] = c.times.Warm

	return probeMicro(in, local, tr, m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func cacheDelta(a, b metrics.CacheCounters) metrics.CacheCounters {
	return metrics.CacheCounters{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Inserts: a.Inserts - b.Inserts,
		Evictions: a.Evictions - b.Evictions, Rejected: a.Rejected - b.Rejected,
	}
}

// probeWAL measures write amplification on the live shards: a serial
// burst of mutations short enough to fit between two snapshot
// compactions, WAL bytes appended over record bytes rewritten. A burst
// that straddles a compaction (which truncates the log) is repeated.
func probeWAL(ctx context.Context, c *cluster, in *inputs, d *driver, m measured) error {
	m["kvstore.wal_bytes_per_user_byte"] = 0
	if d.mir == nil {
		return nil
	}
	const burst = 400 // at most 2 records per shard each: far below the 4096-record compaction period
	for attempt := 0; attempt < 3; attempt++ {
		s0, err := c.client.Stats(ctx)
		if err != nil {
			return err
		}
		d.mir.mu.Lock()
		user0 := d.mir.userBytes
		d.mir.mu.Unlock()
		for i := 0; i < burst; i++ {
			mut, slot := d.mir.next(in.hot)
			n, err := c.client.Mutate(ctx, []grouting.Mutation{mut})
			ok := err == nil && n == 1
			d.mir.ack(mut, slot, ok)
			if !ok {
				return fmt.Errorf("wal probe: mutation %+v failed: %v", mut, err)
			}
		}
		s1, err := c.client.Stats(ctx)
		if err != nil {
			return err
		}
		d.mir.mu.Lock()
		user := float64(d.mir.userBytes - user0)
		d.mir.mu.Unlock()
		var wal float64
		compacted := false
		for i, sh := range s1.PerStorage {
			if sh.Snapshots != s0.PerStorage[i].Snapshots {
				compacted = true
			}
			wal += float64(sh.WALBytes - s0.PerStorage[i].WALBytes)
		}
		if compacted {
			continue
		}
		// Every record is written to each of its R replicas, so the
		// user-visible payload is counted once per replica.
		m["kvstore.wal_bytes_per_user_byte"] = ratio(wal, user*float64(in.w.replicas))
		return nil
	}
	return fmt.Errorf("wal probe: every burst straddled a snapshot compaction")
}

// probeMicro times calls into single packages in-process, at the
// workload's own record sizes and queries.
func probeMicro(in *inputs, local *localLayers, tr *tracer, m measured) error {
	g := in.g
	// The records the workload touches, in storage encoding.
	seen := map[graph.NodeID]bool{}
	var ids []graph.NodeID
	for _, q := range in.queries {
		for _, u := range fetchBall(g, q) {
			if !seen[u] {
				seen[u] = true
				ids = append(ids, u)
			}
		}
		if len(ids) > 50000 {
			break
		}
	}
	enc := make([][]byte, len(ids))
	var total int64
	for i, u := range ids {
		enc[i] = gstore.Encode(nil, gstore.RecordOf(g, u))
		total += int64(len(enc[i]))
	}

	// router: Route+Next per query on each strategy.
	m["landmark.build_s"] = local.landmarkBuildS
	m["embed.build_s"] = local.embedBuildS
	m["embed.bytes"] = float64(local.emb.StorageBytes())
	for policy, strat := range local.strats {
		rt, err := router.New(strat, numProcessors, true)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < microOps; i++ {
			p := rt.Route(in.queries[i%len(in.queries)])
			rt.Next(p)
		}
		m["router.decide_ns."+policy] = float64(time.Since(t0)) / microOps
	}

	// cache: hits on a cache that holds everything; puts into one that
	// holds half, so every put evicts.
	size := func(i int) int64 { return int64(len(enc[i])) }
	recs := make([]gstore.Record, len(ids))
	t0 := time.Now()
	for i, u := range ids {
		recs[i], _ = gstore.Decode(u, enc[i])
	}
	m["gstore.decode_ns_per_record"] = float64(time.Since(t0)) / float64(len(ids))
	big := cache.New[gstore.Record](total * 2)
	for i, u := range ids {
		big.Put(uint64(u), recs[i], size(i))
	}
	t0 = time.Now()
	for i := 0; i < microOps; i++ {
		big.Get(uint64(ids[i%len(ids)]))
	}
	m["cache.get_hit_ns"] = float64(time.Since(t0)) / microOps
	small := cache.New[gstore.Record](total / 2)
	for i, u := range ids {
		small.Put(uint64(u), recs[i], size(i))
	}
	t0 = time.Now()
	for i := 0; i < microOps; i++ {
		k := i % len(ids)
		small.Put(uint64(ids[k]), recs[k], size(k))
	}
	m["cache.put_evict_ns"] = float64(time.Since(t0)) / microOps

	// gstore / kvstore: batched fetch, put, WAL append.
	st, err := kvstore.New(numStorage, kvstore.MurmurPlacer{})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < microOps; i++ {
		k := i % len(ids)
		st.Put(uint64(ids[k]), enc[k])
	}
	m["kvstore.put_ns"] = float64(time.Since(t0)) / microOps
	tier := gstore.NewTier(st)
	dst := make([]gstore.FetchResult, len(ids))
	t0 = time.Now()
	var fetched int
	for fetched < microOps {
		if err := tier.FetchBatchInto(ids, dst, nil); err != nil {
			return err
		}
		fetched += len(ids)
	}
	m["gstore.fetch_ns_per_record"] = float64(time.Since(t0)) / float64(fetched)
	m["kvstore.wal_append_ns"] = walAppendNS(in, ids, enc)

	// mquery: from the spans the replays recorded.
	spanNS := func(name string) float64 {
		d := durations(tr.spans, name)
		if len(d) == 0 {
			return 0
		}
		var sum float64
		for _, x := range d {
			sum += x
		}
		return sum / float64(len(d)) * 1e3
	}
	m["mquery.plan_ns"] = spanNS("mquery.plan")
	m["mquery.merge_ns"] = spanNS("mquery.merge")
	m["mquery.run_us.pattern"] = spanNS("mquery.run.pattern") / 1e3
	m["mquery.run_us.reach"] = spanNS("mquery.run.reach") / 1e3
	m["mquery.run_us.knn"] = spanNS("mquery.run.knn") / 1e3
	// A point query is one routed unit in one wave; a multi-anchor query
	// is as many as its plan and relaunches produced.
	nq := tr.counts["trace.queries"]
	points := nq - tr.counts["mquery.queries"]
	m["mquery.subtasks_per_op"] = (points + tr.counts["mquery.subtasks"]) / nq
	m["mquery.waves_per_op"] = (points + tr.counts["mquery.waves"]) / nq
	m["mquery.max_visited_over_budget"] = tr.counts["mquery.max_visited_over_budget"]

	// core: the virtual-time engine's spans and its own clock.
	m["core.exec_wall_ns_per_op"] = spanNS("core.execute")
	m["core.virtual_us_per_op"] = tr.counts["core.virtual_us"] / nq
	m["core.hit_rate"] = tr.counts["core.hit_rate"]
	m["core.model_ratio"] = ratio(m["client.serial_rtt_us"], m["core.virtual_us_per_op"])
	return nil
}

// walAppendNS times WAL appends of the workload's records on a scratch
// log inside the run's output directory (fsync off, like the shards).
func walAppendNS(in *inputs, ids []graph.NodeID, enc [][]byte) float64 {
	dir, err := os.MkdirTemp(in.tmpRoot, "wal-")
	if err != nil {
		return 0
	}
	defer os.RemoveAll(dir)
	w, err := kvstore.OpenWAL(filepath.Join(dir, "probe.wal"), false, nil)
	if err != nil {
		return 0
	}
	defer w.Close()
	t0 := time.Now()
	for i := 0; i < microOps; i++ {
		k := i % len(ids)
		if err := w.Append(kvstore.WALPut, uint64(ids[k]), uint64(i+1), enc[k]); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0)) / microOps
}
