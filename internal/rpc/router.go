package rpc

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mquery"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/topology"
)

// RouterServer is the networked query router: it accepts client query
// batches, dispatches each query through the same internal/router.Router
// and Route / Next / Done sequence as the virtual-time engine, forwards each
// sub-batch to its processor over a pooled connection (carrying the
// client's deadline) and relays the answers. Stealing is off, so the load
// every decision reads (Eq 3/7) is the slot's forwarded, unsettled work.
//
// Membership is elastic: processors self-register at runtime with OpJoin
// (the router dials back and verifies them before admitting), leave
// cleanly with OpDrain (no new work; the member departs once its in-flight
// queries finish on the old view), and every epoch change re-derives the
// topology-aware strategies' assignments. Slots are stable and never
// reused, so the per-slot accounting stays aligned across epochs.
//
// The router keeps the same per-processor accounting as the virtual-time
// engine (assigned/completed counts, loads, routing-time and load digests)
// and serves it as a metrics.Snapshot on OpStats, so local and networked
// clients report through one structure.
type RouterServer struct {
	ln         net.Listener
	ct         connTracker
	policyName string

	// coords is the coordinate table KNearest re-ranks against (and the
	// embedding the strategy routes by, when it is embedding-based), with
	// its source and the provider failure of a degraded start. Set at
	// construction and never changed.
	coords router.Coords

	mu   sync.Mutex // guards the topology, router, pools and counters below
	topo *topology.Tracker
	// rt makes every routing decision and owns what follows from one: the
	// current view, each slot's load, the per-slot assigned/diverted
	// counters and the epoch log. Forwarding is the pools' job.
	rt        *router.Router
	pools     []*Pool                 // slot-indexed; nil once a member has left
	completed []int64                 // queries each slot answered successfully
	lastCache []metrics.CacheCounters // cache counters of each slot's latest answered stats poll
	inval     []invalidations         // rewritten keys each slot has yet to drop from its cache (mutate.go)
	routing   metrics.Histogram       // wall-clock routing decision time (ns)

	// The storage tier's membership, tracked for observability: storage
	// shards self-register (OpJoin, Tier "storage") and deregister, each
	// transition bumping the storage epoch; Snapshot polls the members for
	// shard counters. The router never routes storage reads — placement is
	// client-side in the processors — so this view is descriptive, which
	// is exactly what -topology and /statsz need.
	storageTopo   *topology.Tracker
	storageView   topology.View
	storagePools  []*Pool // storage-slot-indexed; nil once a member left
	storageEvents []metrics.EpochEvent
	// storageJoinVer holds the durable version watermark each storage
	// shard announced on its latest (re)join — the rejoin-warm handshake:
	// 0 means the shard joined cold (or runs without a WAL), anything
	// higher means it recovered its writes up to that version locally and
	// re-replication only needs to top up the delta. Slot-indexed,
	// guarded by mu.
	storageJoinVer []uint64

	// Online mutations. The router is the single writer: mutMu serialises
	// mutations, so every record rewrite is a clean read-modify-write.
	// labels is the loaded dataset's label table — the table, not the
	// dataset: the router resolves pattern labels and interns mutation
	// labels against the ids the loader encoded records with, and holds
	// nothing else of the graph (nil = only unlabelled patterns and
	// mutations are accepted). storage is the same client
	// the processors read through, built over the seeded shards' pools
	// (shared with storagePools, not dialled again): its placement domain
	// is frozen at the seeded shard count — exactly what the processors'
	// clients hash over, which late-joining shards are not part of.
	labels    *graph.Labels
	mutMu     sync.Mutex
	mutations atomic.Int64
	storage   *StorageClient

	requests atomic.Int64
	queries  atomic.Int64
}

// RouterConfig configures a networked router (grouting.RouterSpec).
type RouterConfig struct {
	// Processors lists the initial processing tier's addresses; more
	// processors can join the running router at any time with
	// ProcessorServer.Register (groutingd -join) and leave cleanly with
	// Deregister, each transition producing a new topology epoch.
	Processors []string
	// Policy selects the routing scheme. Smart policies (PolicyLandmark,
	// PolicyEmbed) need Graph for preprocessing.
	Policy core.Policy
	// Graph is the loaded dataset. NewRouterServer reads it during
	// construction — the smart policies' preprocessing runs over it — and
	// does not retain it: the router keeps the routing tables built from it
	// and its label table (shared with the graph, not copied), which
	// labelled patterns and labelled mutations resolve against. A caller
	// that wants the router's memory to be those tables drops its own
	// reference too; one that keeps the graph (an oracle, a second client)
	// simply keeps it. Without a graph the baseline policies still route,
	// and labelled patterns and mutations are rejected with ErrBadQuery.
	Graph *graph.Graph
	// Seed drives the preprocessing's stochastic choices.
	Seed int64
	// Storage optionally seeds the router's storage view: the listed
	// shards appear in Stats()/grouting-cli -topology with their status
	// and shard counters, and more can join at runtime with
	// StorageServer.Register (groutingd -role storage -join). It is also
	// the write path: the router applies mutations (Client.Mutate through
	// Dial) through the same storage client the processors read through,
	// over exactly these shards — so list the shards, in the order, the
	// loader and the processors were given.
	Storage []string
	// StorageReplicas is the deployment's storage replication factor —
	// the one the loader and the processors use; the router's writes go
	// to that many replicas and Stats() reports it (0 reads as 1).
	StorageReplicas int
	// EmbedProvider supplies node coordinates from a pluggable source
	// (OpenEmbeddingFile, NewFileProvider, or any user Embedder) instead
	// of the built-in learned embedding. It is materialised once at router
	// start and then serves both embedding-based routing and KNearest
	// ranking. Providers without their own snapshot need Graph to walk.
	// When it fails and the policy does not require an embedding, the
	// router starts degraded: KNearest queries answer the typed
	// ErrUnavailable; everything else is unaffected.
	EmbedProvider embed.Embedder
}

// NewRouterServer starts a router on addr: it builds the routing strategy
// cfg describes (the smart policies' preprocessing over cfg.Graph at
// router.NetworkTables' shape, and cfg.EmbedProvider's materialisation),
// connects to the processors and serves in the background.
func NewRouterServer(addr string, cfg RouterConfig) (*RouterServer, error) {
	if len(cfg.Processors) == 0 {
		return nil, fmt.Errorf("rpc: router needs at least one processor")
	}
	strat, coords, err := configStrategy(cfg.Graph, networkConfig(cfg.Policy, len(cfg.Processors), cfg.Seed, cfg.EmbedProvider))
	if err != nil {
		return nil, err
	}
	return newRouterServer(addr, cfg, strat, coords)
}

// newRouterServer starts a router on addr that routes by strat, which the
// caller built for cfg.Policy (cfg's Seed and EmbedProvider are not read),
// and re-ranks KNearest against coords.
func newRouterServer(addr string, cfg RouterConfig, strat router.Strategy, coords router.Coords) (*RouterServer, error) {
	n := len(cfg.Processors)
	r := &RouterServer{
		policyName: cfg.Policy.String(),
		coords:     coords,
		topo:       topology.NewTrackerAddrs(cfg.Processors),
		completed:  make([]int64, n),
		lastCache:  make([]metrics.CacheCounters, n),
		inval:      make([]invalidations, n),
	}
	rt, err := router.NewFromView(strat, r.topo.View(), false)
	if err != nil {
		return nil, err
	}
	r.rt = rt
	r.storageTopo = topology.NewTierTrackerAddrs(topology.TierStorage, cfg.Storage)
	r.storageView = r.storageTopo.View()
	if cfg.Graph != nil {
		r.labels = cfg.Graph.Labels()
	}
	if r.pools, err = dialPools(cfg.Processors); err != nil {
		return nil, err
	}
	if r.storagePools, err = dialPools(cfg.Storage); err != nil {
		r.closePools()
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		r.closePools()
		return nil, fmt.Errorf("rpc: router listen: %w", err)
	}
	// The client keeps its own slice of the seeded pools: a drained shard's
	// entry in storagePools goes nil, the client's stays a closed pool whose
	// calls fail typed.
	r.storage = newStorageClient(slices.Clone(r.storagePools), max(cfg.StorageReplicas, 1))
	r.ln = ln
	go serve(ln, r.handle, &r.ct)
	return r, nil
}

// Addr returns the router's listen address.
func (r *RouterServer) Addr() string { return r.ln.Addr().String() }

// Close stops the router.
func (r *RouterServer) Close() error {
	r.storage.Close()
	r.closePools()
	err := r.ln.Close()
	r.ct.closeAll()
	return err
}

func (r *RouterServer) closePools() {
	r.mu.Lock()
	pools := append(append([]*Pool(nil), r.pools...), r.storagePools...)
	r.mu.Unlock()
	closeAll(pools)
}

// Epoch returns the router's current topology epoch.
func (r *RouterServer) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rt.Epoch()
}

// View returns the router's current topology view.
func (r *RouterServer) View() topology.View {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.rt.View()
	return topology.View{Epoch: v.Epoch, Members: append([]topology.Member(nil), v.Members...)}
}

// applyViewLocked moves the router to a newer view — the strategy's
// topology hook fires and the transition is logged there — then grows the
// networked slot arrays for joiners (a joiner's invalidation queue starts
// empty, like its cache) and closes the pools of departed members, whose
// queues go with them (a slot only leaves with nothing in flight). Caller
// holds r.mu.
func (r *RouterServer) applyViewLocked(v topology.View) {
	r.rt.ApplyView(v)
	for len(r.completed) < v.Slots() {
		r.completed = append(r.completed, 0)
		r.lastCache = append(r.lastCache, metrics.CacheCounters{})
		r.inval = append(r.inval, invalidations{})
		r.pools = append(r.pools, nil)
	}
	for slot, p := range r.pools {
		if p != nil && v.Status(slot) == topology.Left {
			go p.Close()
			r.pools[slot] = nil
			// Keep the numbering: an answer still on its way retires nothing.
			q := &r.inval[slot]
			q.keys, q.edits, q.base = nil, nil, q.base+uint64(len(q.keys))
		}
	}
}

func (r *RouterServer) handle(ctx context.Context, req *Request) Response {
	r.requests.Add(1)
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpStats:
		snap, err := r.Snapshot(ctx)
		if err != nil {
			return errorResponse(err)
		}
		return Response{OK: true, Epoch: snap.Epoch, Stats: &Stats{Role: "router", Requests: r.requests.Load(), Snapshot: snap}}
	case OpJoin:
		if req.Tier == "storage" {
			return r.joinStorage(ctx, req.Addr, req.Version)
		}
		return r.join(ctx, req.Addr)
	case OpDrain:
		if req.Tier == "storage" {
			return r.drainStorage(req)
		}
		return r.drain(req)
	case OpExecute:
		if req.Exec == nil || len(req.Exec.Queries) == 0 {
			return errorResponse(fmt.Errorf("%w: execute request carries no queries", query.ErrBadQuery))
		}
		return r.execute(ctx, req.Exec)
	case OpMutate:
		return r.mutate(ctx, req.Muts)
	}
	return errorResponse(fmt.Errorf("router: unknown op %q", req.Op))
}

// execute routes every query of the batch, groups them by destination
// processor and forwards the per-processor sub-batches concurrently, so a
// pipelined client pays one router round trip for the whole batch. The
// whole batch is routed under one epoch, stamped on the response;
// sub-batches already forwarded keep draining on that view even if the
// topology moves mid-flight.
func (r *RouterServer) execute(ctx context.Context, ex *ExecRequest) Response {
	for _, q := range ex.Queries {
		if err := q.Validate(); err != nil {
			return errorResponse(err)
		}
	}
	for _, q := range ex.Queries {
		if q.Type.MultiAnchor() {
			return r.executeMixed(ctx, ex)
		}
	}
	return r.executeClassic(ctx, ex)
}

// executeMixed handles a batch containing multi-anchor queries: each one
// runs through the wave machinery, the single-seed remainder goes through
// the classic batch path, and the results are reassembled positionally.
func (r *RouterServer) executeMixed(ctx context.Context, ex *ExecRequest) Response {
	out := Response{OK: true, Epoch: r.Epoch(), Results: make([]query.Result, len(ex.Queries))}
	var classic []int
	for i, q := range ex.Queries {
		if !q.Type.MultiAnchor() {
			classic = append(classic, i)
			continue
		}
		res, epoch, err := r.executeMultiQuery(ctx, q)
		if err != nil {
			return errorResponse(err)
		}
		out.Results[i] = res
		if epoch > out.Epoch {
			out.Epoch = epoch
		}
	}
	if len(classic) > 0 {
		sub := &ExecRequest{Queries: make([]query.Query, len(classic))}
		for j, i := range classic {
			sub.Queries[j] = ex.Queries[i]
		}
		resp := r.executeClassic(ctx, sub)
		if resp.Err != "" {
			return resp
		}
		for j, i := range classic {
			out.Results[i] = resp.Results[j]
		}
		if resp.Epoch > out.Epoch {
			out.Epoch = resp.Epoch
		}
	}
	return out
}

// routeScratch recycles the per-batch routing buffers (and the fast-path
// request envelope) across executeClassic calls. The Response is never
// pooled: its slices are returned to the caller.
type routeScratch struct {
	dest  []int
	pools []*Pool
	inv   []carried
	req   Request
}

var routePool = sync.Pool{New: func() any { return new(routeScratch) }}

func (r *RouterServer) executeClassic(ctx context.Context, ex *ExecRequest) Response {
	sc := routePool.Get().(*routeScratch)
	defer routePool.Put(sc)
	// Routing decisions under the current load (one strategy lock for the
	// batch; the strategy is inherently sequential).
	if cap(sc.dest) < len(ex.Queries) {
		sc.dest = make([]int, len(ex.Queries))
	}
	dest := sc.dest[:len(ex.Queries)]
	r.mu.Lock()
	if r.rt.View().NumActive() == 0 {
		r.mu.Unlock()
		return errorResponse(fmt.Errorf("%w: no active processors", query.ErrUnavailable))
	}
	epoch := r.rt.Epoch()
	for i, q := range ex.Queries {
		t0 := time.Now()
		p := r.rt.Route(q)
		r.routing.Observe(time.Since(t0).Nanoseconds())
		r.rt.Next(p) // q, outstanding on p until its reply settles
		dest[i] = p
	}
	pools := append(sc.pools[:0], r.pools...)
	inv := r.carryLocked(sc.inv[:0])
	sc.pools, sc.inv = pools, inv
	r.mu.Unlock()

	// Fast path — the whole batch (typically a single query) lands on one
	// processor: forward the request as-is, no fan-out machinery.
	single := true
	for _, p := range dest[1:] {
		if p != dest[0] {
			single = false
			break
		}
	}
	if single {
		p := dest[0]
		sc.req = Request{Exec: ex}
		resp, err := r.forward(ctx, pools[p], p, &sc.req, inv[p])
		r.finish(len(dest), err)
		if err != nil {
			return errorResponse(err)
		}
		resp.Epoch = epoch
		return resp
	}

	// Group the batch by destination, remembering original positions.
	groups := make(map[int][]int, len(pools))
	for i, p := range dest {
		groups[p] = append(groups[p], i)
	}

	type procResult struct {
		proc    int
		indices []int
		resp    Response
		err     error
	}
	results := make(chan procResult, len(groups))
	for p, indices := range groups {
		go func(p int, indices []int) {
			sub := &ExecRequest{Queries: make([]query.Query, len(indices))}
			for j, i := range indices {
				sub.Queries[j] = ex.Queries[i]
			}
			resp, err := r.forward(ctx, pools[p], p, &Request{Exec: sub}, inv[p])
			results <- procResult{proc: p, indices: indices, resp: resp, err: err}
		}(p, indices)
	}

	out := Response{OK: true, Epoch: epoch, Results: make([]query.Result, len(ex.Queries))}
	var firstErr error
	for range groups {
		pr := <-results
		r.finish(len(pr.indices), pr.err)
		if pr.err != nil {
			if firstErr == nil {
				firstErr = pr.err
			}
			continue
		}
		for j, i := range pr.indices {
			out.Results[i] = pr.resp.Results[j]
		}
	}
	if firstErr != nil {
		return errorResponse(firstErr)
	}
	return out
}

// executeMultiQuery runs one multi-anchor query as waves of per-anchor
// subtasks fanned out to the processors. Partial results stream back and
// are merged as each processor answers; for BoundedReach, a hit on the
// target cancels the wave's outstanding subtask calls mid-stream (their
// results cannot change the answer) and no further wave launches.
func (r *RouterServer) executeMultiQuery(ctx context.Context, q query.Query) (query.Result, uint64, error) {
	if q.Type == query.KNearest {
		// Ranking needs the coordinate table; fail before issuing subtasks.
		if err := r.coords.KNNReady(r.policyName); err != nil {
			return query.Result{}, 0, err
		}
	}
	var resolve mquery.LabelResolver
	if r.labels != nil {
		resolve = r.labels.ID
	}
	pl, err := mquery.NewPlan(q, resolve)
	if err != nil {
		return query.Result{}, 0, err
	}
	m := mquery.NewMerger(pl)
	epoch := r.Epoch()
	wave := pl.Subtasks
	for len(wave) > 0 && !m.Found() {
		ep, err := r.runWave(ctx, q, wave, m)
		if ep > 0 {
			epoch = ep
		}
		if err != nil {
			return query.Result{}, epoch, err
		}
		wave = m.NextWave()
	}
	// One client-visible query completed (subtasks were internal work
	// units — runWave settles them without touching these counters).
	r.queries.Add(1)
	res := m.Result()
	if pl.Kind == mquery.KindKNN {
		// Exact re-rank at the router: the processors only generated the
		// hop-bounded candidate ball; the embedding lives here.
		res = query.KNNResult(r.coords.Embedding, q, m.Candidates())
	}
	return res, epoch, nil
}

// runWave routes one wave of subtasks through the strategy's multi-anchor
// hook, fans the per-processor groups out concurrently, and absorbs the
// partial results as they stream back.
func (r *RouterServer) runWave(ctx context.Context, q query.Query, wave []mquery.Subtask, m *mquery.Merger) (uint64, error) {
	anchors := make([]graph.NodeID, len(wave))
	for i, st := range wave {
		anchors[i] = st.Anchor
	}

	r.mu.Lock()
	if r.rt.View().NumActive() == 0 {
		r.mu.Unlock()
		return 0, fmt.Errorf("%w: no active processors", query.ErrUnavailable)
	}
	epoch := r.rt.Epoch()
	t0 := time.Now()
	picks := r.rt.RouteAnchors(q, anchors)
	perPick := time.Since(t0).Nanoseconds() / int64(len(picks))
	for range picks {
		r.routing.Observe(perPick)
	}
	pools := append([]*Pool(nil), r.pools...)
	inv := r.carryLocked(nil)
	r.mu.Unlock()

	groups := make(map[int][]int, len(pools))
	for i, p := range picks {
		groups[p] = append(groups[p], i)
	}

	// The wave context lets an early BoundedReach success cancel sibling
	// subtask calls mid-stream.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type procResult struct {
		proc    int
		indices []int
		resp    Response
		err     error
	}
	results := make(chan procResult, len(groups))
	for p, indices := range groups {
		go func(p int, indices []int) {
			sub := &ExecRequest{Subtasks: make([]mquery.Subtask, len(indices))}
			for j, i := range indices {
				sub.Subtasks[j] = wave[i]
			}
			// Subtasks are routed work units inside one query, not queries:
			// forward settles the per-slot accounting, and the client-visible
			// counters move once, when the whole query completes.
			resp, err := r.forward(wctx, pools[p], p, &Request{Exec: sub}, inv[p])
			results <- procResult{proc: p, indices: indices, resp: resp, err: err}
		}(p, indices)
	}

	var firstErr error
	for range groups {
		pr := <-results
		if m.Found() {
			// Answer already known: late partials are redundant, and late
			// errors are expected — we cancelled those calls ourselves.
			continue
		}
		if pr.err != nil {
			if firstErr == nil {
				firstErr = pr.err
			}
			continue
		}
		for _, part := range pr.resp.Partials {
			if err := m.Absorb(part); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				break
			}
			if m.Found() {
				cancel() // mid-stream: abort the wave's outstanding calls
				break
			}
		}
	}
	if m.Found() {
		return epoch, nil
	}
	return epoch, firstErr
}

// carryLocked snapshots every slot's invalidation queue for the frames of the
// batch being routed, slot-indexed into dst. With nothing queued — every
// batch of a read-only workload — that is one empty entry per slot and the
// frames are byte for byte what they were. Caller holds r.mu.
func (r *RouterServer) carryLocked(dst []carried) []carried {
	for i := range r.inval {
		dst = append(dst, r.inval[i].carry())
	}
	return dst
}

// forward is the one place an OpExecute frame leaves for a processor: req's
// queries or subtasks, one unit of work each, to slot p over pool. The frame
// takes along what the slot's invalidation queue held when its batch was
// routed (c) — the keys, their edits as Values and the sequence number past
// them as Version; the processor applies them before anything else — and the
// slot's accounting settles when the call returns. A reply short of one
// result per query or one partial per subtask is a failed peer, typed
// unavailable; only a whole OK reply retires what the frame carried.
func (r *RouterServer) forward(ctx context.Context, pool *Pool, p int, req *Request, c carried) (Response, error) {
	req.Op, req.Keys, req.Values, req.Version = OpExecute, c.keys, c.edits, 0
	if len(c.keys) > 0 {
		req.Version = c.upTo
	}
	ex := req.Exec
	resp, err := pool.Call(ctx, req)
	if err == nil {
		err = checkResults(pool.Addr(), &resp, len(ex.Queries), len(ex.Subtasks))
	}
	r.settle(p, len(ex.Queries)+len(ex.Subtasks), c.upTo, err)
	return resp, err
}

// settle closes the per-slot accounting for n answered units of work on
// processor p: the router's load drops (Done), successful completions
// advance the per-processor counters and retire the invalidations their
// frame carried (those numbered below upTo), and a draining member whose
// last outstanding work just finished completes its departure.
func (r *RouterServer) settle(p, n int, upTo uint64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rt.Done(p, n)
	if err == nil {
		r.completed[p] += int64(n)
		r.inval[p].retire(upTo)
	}
	if r.rt.Load(p) == 0 && r.rt.Status(p) == topology.Draining {
		if v, lerr := r.topo.Leave(p); lerr == nil {
			r.applyViewLocked(v)
		}
	}
}

// finish counts a forwarded sub-batch of n client queries, when it
// succeeded, toward the client-visible total.
func (r *RouterServer) finish(n int, err error) {
	if err == nil {
		r.queries.Add(int64(n))
	}
}

// Snapshot assembles the system-wide observability snapshot: the routing
// half from router.Router.Snapshot, the builder the virtual-time engine
// uses too, plus what this router counts and what its members report —
// each live processor's OpStats cache counters (falling back to the
// counters of their last answered poll for processors that do not) and
// each shard's row, taken as it is. The whole snapshot is assembled under
// one lock, so it never mixes epochs.
func (r *RouterServer) Snapshot(ctx context.Context) (*metrics.Snapshot, error) {
	r.mu.Lock()
	pools := append([]*Pool(nil), r.pools...)
	storagePools := append([]*Pool(nil), r.storagePools...)
	r.mu.Unlock()

	// Members that do not answer keep their last polled cache counters
	// (processors) or zero counters (shards), and still report their status.
	fresh := pollStats(ctx, pools)
	shardFresh := pollStats(ctx, storagePools)

	r.mu.Lock()
	defer r.mu.Unlock()
	snap := r.rt.Snapshot(r.policyName, r.coords)
	snap.Transport = "tcp"
	snap.Queries = r.queries.Load()
	snap.Mutations = r.mutations.Load()
	snap.RoutingNanos = r.routing.Summary()
	for i, m := range r.rt.View().Members {
		if i < len(fresh) && fresh[i] != nil && fresh[i].Cache != nil {
			r.lastCache[i] = *fresh[i].Cache
		}
		pc := &snap.PerProc[i]
		pc.Addr = m.Addr
		pc.Executed = r.completed[i]
		pc.Cache = r.lastCache[i]
		pc.PendingInvalidations = int64(len(r.inval[i].keys))
		pc.InvalidationsDelivered = r.inval[i].delivered
		snap.Cache.Add(pc.Cache)
	}
	snap.StorageEpoch = r.storageView.Epoch
	snap.StorageReplicas = r.storage.Replicas()
	for _, m := range r.storageView.Members {
		var sc metrics.StorageCounters
		if m.Slot < len(shardFresh) && shardFresh[m.Slot] != nil && shardFresh[m.Slot].Storage != nil {
			sc = *shardFresh[m.Slot].Storage
		}
		sc.Slot, sc.Status, sc.Addr = m.Slot, m.Status.String(), m.Addr
		if sc.DurableVersion == 0 && m.Slot < len(r.storageJoinVer) {
			// Fall back to the version the shard announced at join time
			// when it is not answering stats polls right now.
			sc.DurableVersion = r.storageJoinVer[m.Slot]
		}
		snap.PerStorage = append(snap.PerStorage, sc)
	}
	snap.Epochs = append(snap.Epochs, r.storageEvents...)
	return snap, nil
}

// pollStats asks every member with a pool for its OpStats concurrently. The
// result is slot-indexed; members that have left or do not answer stay nil.
func pollStats(ctx context.Context, pools []*Pool) []*Stats {
	out := make([]*Stats, len(pools))
	var wg sync.WaitGroup
	for i, pool := range pools {
		if pool == nil {
			continue
		}
		wg.Add(1)
		go func(i int, pool *Pool) {
			defer wg.Done()
			if resp, err := pool.Call(ctx, &Request{Op: OpStats}); err == nil {
				out[i] = resp.Stats
			}
		}(i, pool)
	}
	wg.Wait()
	return out
}
