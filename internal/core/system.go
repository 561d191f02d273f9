package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kvstore"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// System is an assembled decoupled deployment over one graph: storage tier
// loaded, preprocessing done, processors provisioned. Workload runs are
// side-effect-free with respect to the System (caches and router state are
// rebuilt per run), so one System can serve many experiments.
//
// The processing tier is elastic: Config.Processors only sizes the initial
// membership, and AddProcessor / DrainProcessor / FailProcessor /
// ReviveProcessor move the epoch-versioned topology afterwards. Sessions
// and workload runs pick up the current view at their next boundary — the
// decoupled design's core property that processors come and go without
// repartitioning the graph.
type System struct {
	cfg   Config
	g     *graph.Graph
	store *kvstore.Store
	tier  *gstore.Tier
	topo  *topology.Tracker

	idx    *landmark.Index
	assign *landmark.Assignment
	emb    *embed.Embedding
	// embErr records a failed EmbedProvider materialisation when the
	// policy could start without it: the system runs degraded and
	// KNearest queries surface this wrapped in query.ErrUnavailable.
	embErr error

	prep PrepStats

	// stMu guards the storage transition log below; the store itself
	// orders the transitions.
	stMu            sync.Mutex
	lastStorageView topology.View
	storageEvents   []metrics.EpochEvent
}

// NewSystem builds a system: loads the graph into the storage tier and
// runs whatever preprocessing the configured policy needs.
func NewSystem(g *graph.Graph, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	st, err := kvstore.NewStore(cfg.StorageServers, cfg.StorageReplicas, cfg.Placer)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:   cfg,
		g:     g,
		store: st,
		tier:  gstore.NewTier(st),
		topo:  topology.NewTracker(cfg.Processors, cfg.FailedProcessors),
	}
	s.lastStorageView = st.View()
	if cfg.StorageDir != "" {
		// Durability goes on before the bulk load so every loaded record is
		// logged — and so a directory with a previous run's files restarts
		// the tier warm (the load then only freshens versions).
		err := st.EnableDurability(kvstore.Durability{
			Dir:           cfg.StorageDir,
			SnapshotEvery: cfg.StorageSnapshotEvery,
			Fsync:         cfg.StorageFsync,
		})
		if err != nil {
			return nil, err
		}
	}
	s.prep.GraphBytes = gstore.Load(st, g)
	if cfg.EmbedProvider != nil {
		// A pluggable provider replaces the learned embedding wholesale:
		// materialise it up front so routing and KNearest ranking read a
		// plain coordinate table, never the provider, on the hot path.
		t0 := time.Now()
		e, err := embed.Materialize(context.Background(), cfg.EmbedProvider, g)
		switch {
		case err == nil:
			s.emb = e
			s.prep.EmbedNodeTime = time.Since(t0)
			s.prep.EmbedBytes = e.StorageBytes()
		case cfg.Policy.NeedsEmbedding():
			// The router cannot run without coordinates: fail construction.
			return nil, fmt.Errorf("core: embed provider %q: %w", cfg.EmbedProvider.Name(), err)
		default:
			// Degraded start: only KNearest needs the embedding, and it
			// reports the failure per query as ErrUnavailable.
			s.embErr = err
		}
	}
	if cfg.Policy.NeedsLandmarks() {
		if err := s.preprocess(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// Graph returns the underlying graph.
func (s *System) Graph() *graph.Graph { return s.g }

// Prep returns the preprocessing statistics (Tables 2 and 3).
func (s *System) Prep() PrepStats { return s.prep }

// Embedding returns the node embedding: the materialised EmbedProvider
// when one is configured, the learned embedding under PolicyEmbed, nil
// otherwise.
func (s *System) Embedding() *embed.Embedding { return s.emb }

// knnReady reports whether KNearest queries can be answered: the system
// holds an embedding. The error is typed query.ErrUnavailable — a
// degraded provider is a service condition, not a bad query — and carries
// the materialisation failure when that is why the embedding is missing.
func (s *System) knnReady() error {
	if s.emb != nil {
		return nil
	}
	if s.embErr != nil {
		return fmt.Errorf("core: k-nearest needs an embedding, provider failed: %v: %w", s.embErr, query.ErrUnavailable)
	}
	return fmt.Errorf("core: k-nearest needs an embedding (policy %v builds none and no EmbedProvider is set): %w",
		s.cfg.Policy, query.ErrUnavailable)
}

// LandmarkIndex returns the landmark distance index (nil for baselines).
func (s *System) LandmarkIndex() *landmark.Index { return s.idx }

// preprocess runs landmark selection + BFS, landmark→processor assignment
// and (for PolicyEmbed) the graph embedding. With PreprocessFraction < 1
// only an induced subgraph is preprocessed exactly; remaining nodes are
// incorporated through the incremental update path (Figure 10).
func (s *System) preprocess() error {
	prepGraph := s.g
	var leftOut []graph.NodeID
	if s.cfg.PreprocessFraction < 1 {
		prepGraph, leftOut = inducedFraction(s.g, s.cfg.PreprocessFraction, s.cfg.Seed)
	}

	t0 := time.Now()
	lms := landmark.Select(prepGraph, s.cfg.Landmarks, s.cfg.MinSeparation)
	s.prep.SelectTime = time.Since(t0)
	if len(lms) < 2 {
		return fmt.Errorf("core: selected only %d landmarks (graph too small or disconnected)", len(lms))
	}
	s.prep.Landmarks = len(lms)

	t0 = time.Now()
	s.idx = landmark.BuildIndex(prepGraph, lms, 0)
	s.prep.BFSTime = time.Since(t0)

	// Incorporate the nodes excluded from preprocessing through the
	// incremental path, in id order (standing in for arrival order), using
	// the *full* graph's adjacency — exactly the paper's update rule:
	// "we incrementally compute the necessary information for the new
	// nodes, as they are being added, without changing anything on the
	// preprocessed information of the earlier nodes." A single pass leaves
	// the distances deliberately stale; that staleness is what Figure 10
	// measures.
	for _, u := range leftOut {
		s.idx.IncorporateNode(s.g, u)
	}

	s.assign = landmark.Assign(s.idx, s.cfg.Processors)
	s.prep.LandmarkBytes = s.assign.StorageBytes()
	s.prep.IndexBytes = s.idx.StorageBytes()

	if s.cfg.Policy.NeedsEmbedding() && s.emb == nil {
		t0 = time.Now()
		e, err := embed.Build(s.g, s.idx, embed.Options{Dimensions: s.cfg.Dimensions, Seed: s.cfg.Seed})
		if err != nil {
			return err
		}
		s.emb = e
		s.prep.EmbedNodeTime = time.Since(t0)
		s.prep.EmbedBytes = e.StorageBytes()
	}
	return nil
}

// inducedFraction returns a copy of g induced on a uniformly sampled
// fraction of its live nodes (same node-id space; unsampled ids are
// tombstoned) plus the list of left-out nodes in id order.
func inducedFraction(g *graph.Graph, fraction float64, seed int64) (*graph.Graph, []graph.NodeID) {
	rng := xrand.New(seed ^ 0x517cc1b727220a95)
	max := int(g.MaxNodeID())
	keep := make([]bool, max)
	var leftOut []graph.NodeID
	sub := graph.NewWithCapacity(max)
	sub.AddNodes(max)
	for id := 0; id < max; id++ {
		if !g.Exists(graph.NodeID(id)) {
			_ = sub.RemoveNode(graph.NodeID(id))
			continue
		}
		if rng.Float64() < fraction {
			keep[id] = true
		} else {
			leftOut = append(leftOut, graph.NodeID(id))
		}
	}
	for id := 0; id < max; id++ {
		if !keep[id] {
			continue
		}
		for _, e := range g.OutEdges(graph.NodeID(id)) {
			if int(e.To) < max && keep[e.To] {
				sub.AddEdgeFast(graph.NodeID(id), e.To)
			}
		}
	}
	// Tombstone unsampled nodes after edges are in (they carry none).
	for id := 0; id < max; id++ {
		if !keep[id] && g.Exists(graph.NodeID(id)) {
			_ = sub.RemoveNode(graph.NodeID(id))
		}
	}
	return sub, leftOut
}

// buildStrategy creates a fresh routing strategy for one workload run
// through the strategy registry, so runs never share router state and
// registered user strategies construct exactly like the built-ins.
func (s *System) buildStrategy() (router.Strategy, error) {
	reg, ok := router.LookupID(int(s.cfg.Policy))
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %v", s.cfg.Policy)
	}
	return reg.New(router.Resources{
		Procs:      s.cfg.Processors,
		Seed:       s.cfg.Seed,
		LoadFactor: s.cfg.LoadFactor,
		Alpha:      s.cfg.Alpha,
		Graph:      s.g,
		Index:      s.idx,
		Assignment: s.assign,
		Embedding:  s.emb,
	})
}

// newProc provisions one processor slot's runtime state (cold cache).
func (s *System) newProc(slot int) *proc {
	p := &proc{id: slot, near: s.nearStorageSlot(slot)}
	if s.cfg.Policy != PolicyNoCache {
		p.cache = cache.NewProcessor(s.cfg.CacheBytes)
	}
	return p
}

// newProcs provisions per-run processor states for every non-departed slot
// of the view (cold caches); departed slots stay nil.
func (s *System) newProcs(v topology.View) []*proc {
	procs := make([]*proc, v.Slots())
	for i := range procs {
		if v.Status(i) != topology.Left {
			procs[i] = s.newProc(i)
		}
	}
	return procs
}

// Topology returns the current epoch-versioned membership view.
func (s *System) Topology() topology.View { return s.topo.View() }

// AddProcessor grows the processing tier by one member and returns its
// slot. Running sessions pick the new member up at their next query; a
// workload run started afterwards includes it from the first query. No
// storage repartitioning happens — that is the decoupled design's point.
func (s *System) AddProcessor() int {
	slot, _ := s.topo.Join("")
	return slot
}

// DrainProcessor removes a member cleanly: it stops receiving new work and
// its queued work is re-routed to the live members when each session
// applies the new view — nothing is lost, unlike a failure. The slot is
// never reused.
func (s *System) DrainProcessor(slot int) error {
	if _, err := s.topo.Leave(slot); err != nil {
		return fmt.Errorf("core: drain processor %d: %w", slot, err)
	}
	return nil
}

// FailProcessor marks a member as down: new work is diverted away and its
// backlog is recovered by the live processors through stealing. A failed
// member can ReviveProcessor later.
func (s *System) FailProcessor(slot int) error {
	if _, err := s.topo.Fail(slot); err != nil {
		return fmt.Errorf("core: fail processor %d: %w", slot, err)
	}
	return nil
}

// ReviveProcessor returns a failed member to service (its session-local
// caches survive the outage, so it resumes warm).
func (s *System) ReviveProcessor(slot int) error {
	if _, err := s.topo.Revive(slot); err != nil {
		return fmt.Errorf("core: revive processor %d: %w", slot, err)
	}
	return nil
}

// StorageTopology returns the storage tier's current epoch-versioned
// membership view.
func (s *System) StorageTopology() topology.View { return s.store.View() }

// Store exposes the storage tier (read-only use: stats, placement checks).
func (s *System) Store() *kvstore.Store { return s.store }

// logStorageTransitionLocked records the epoch events between the last
// observed storage view and now, for the Snapshot's tier-tagged epoch
// log. Caller holds s.stMu, which it acquired *before* the store
// mutation — that ordering keeps concurrent membership calls from
// diffing against each other's views out of order.
func (s *System) logStorageTransitionLocked(v topology.View) {
	s.storageEvents = router.AppendEpoch(s.storageEvents, topology.TierStorage, s.lastStorageView, v, 0)
	s.lastStorageView = v
}

// storageEventLog returns a copy of the bounded storage transition log.
func (s *System) storageEventLog() []metrics.EpochEvent {
	s.stMu.Lock()
	defer s.stMu.Unlock()
	return append([]metrics.EpochEvent(nil), s.storageEvents...)
}

// storageTransition runs one membership transition of the storage tier
// under stMu and appends the view it produced to the transition log; what
// names the failed transition in the wrapped error.
func (s *System) storageTransition(what string, do func() (topology.View, error)) error {
	s.stMu.Lock()
	defer s.stMu.Unlock()
	v, err := do()
	if err != nil {
		return fmt.Errorf("core: %s: %w", what, err)
	}
	s.logStorageTransitionLocked(v)
	return nil
}

// AddStorage grows the storage tier by one replica-bearing member and
// returns its slot. The records whose placement now includes the new
// member (~1/(N+1) of the key space, the rendezvous remap bound) are
// re-replicated onto it before the call returns; queries running
// concurrently keep reading their old replicas until the new placement is
// fully populated. With StorageReplicas = 1 it re-homes most records and is
// refused while a storage member is down.
func (s *System) AddStorage() (int, error) {
	var slot int
	err := s.storageTransition("add storage", func() (v topology.View, err error) {
		slot, v, err = s.store.AddServer()
		return v, err
	})
	return slot, err
}

// DrainStorage removes a storage member cleanly: every record it holds is
// re-replicated onto the survivors before the member leaves and its
// memory is released. The slot is never reused. Refused like AddStorage
// while a member is down at StorageReplicas = 1.
func (s *System) DrainStorage(slot int) error {
	return s.storageTransition(fmt.Sprintf("drain storage %d", slot), func() (topology.View, error) {
		return s.store.DrainServer(slot)
	})
}

// FailStorage marks a storage member as down: its data becomes
// unreachable and reads fail over to the surviving replicas. With
// StorageReplicas >= 2 the under-replicated records are immediately
// re-replicated from their survivors, so a subsequent failure of another
// member still loses nothing; with 1 replica the member's keys are
// unavailable (typed query.ErrUnavailable) until ReviveStorage.
func (s *System) FailStorage(slot int) error {
	return s.storageTransition(fmt.Sprintf("fail storage %d", slot), func() (topology.View, error) {
		return s.store.FailServer(slot)
	})
}

// ReviveStorage returns a down storage member to service, synchronising
// it (missed writes copied in by version, missed deletions arriving as
// tombstones) and garbage-collecting the stand-in copies created during
// the outage.
func (s *System) ReviveStorage(slot int) error {
	return s.storageTransition(fmt.Sprintf("revive storage %d", slot), func() (topology.View, error) {
		return s.store.ReviveServer(slot)
	})
}

// CrashStorage kills a storage member with process-death semantics: its
// in-memory data is gone and (when durability is on) its WAL is abandoned
// without a sync — only what the log already handed the OS survives. The
// tier repairs around it like a failure; RestartStorage brings it back.
func (s *System) CrashStorage(slot int) error {
	return s.storageTransition(fmt.Sprintf("crash storage %d", slot), func() (topology.View, error) {
		return s.store.CrashServer(slot)
	})
}

// RestartStorage brings a crashed (or failed) storage member back the way
// a restarted process would: local snapshot+WAL replay first (warm start,
// when Config.StorageDir is set), then rejoin, with re-replication topping
// up only the writes newer than its durable version. Without durability
// the member rejoins empty and re-replication copies the full shard.
func (s *System) RestartStorage(slot int) error {
	return s.storageTransition(fmt.Sprintf("restart storage %d", slot), func() (topology.View, error) {
		return s.store.RestartServer(slot)
	})
}

// PartitionStorage cuts a storage member off from the tier — a netsplit,
// not a crash: its data and placement survive, but reads route around it
// and writes skip it until HealStorage. No topology epoch is produced;
// the system does not know the link is down, which is the point.
func (s *System) PartitionStorage(slot int) error {
	if err := s.store.PartitionServer(slot); err != nil {
		return fmt.Errorf("core: partition storage %d: %w", slot, err)
	}
	return nil
}

// HealStorage reconnects a partitioned storage member and synchronises it
// with the writes it missed.
func (s *System) HealStorage(slot int) error {
	if err := s.store.HealServer(slot); err != nil {
		return fmt.Errorf("core: heal storage %d: %w", slot, err)
	}
	return nil
}

// incorporateNode runs the routing-side incremental update for a new node
// u (landmark distances, processor assignment, embedding coordinates —
// Section 3.4, graph updates); the session write path rewrites the storage
// records itself, to account their virtual-time cost.
func (s *System) incorporateNode(u graph.NodeID) {
	if s.idx != nil {
		s.idx.IncorporateNode(s.g, u)
		s.assign.SetNodeDistances(s.idx, u)
	}
	switch {
	case s.emb == nil:
	case s.cfg.EmbedProvider != nil:
		// Provider-backed coordinates: ask the provider for the new node.
		// A failed or uncovered lookup leaves the node unembedded (NaN
		// row semantics), which ranking and routing already tolerate.
		rows, err := s.cfg.EmbedProvider.Embed(context.Background(), []graph.NodeID{u})
		if err == nil && len(rows) == 1 && rows[0] != nil {
			_ = s.emb.SetRow(u, rows[0])
		}
	default:
		s.emb.IncorporateNode(s.g, s.idx, u, embed.Options{Dimensions: s.cfg.Dimensions, Seed: s.cfg.Seed})
	}
}

// refreshEdge is the routing-side incremental update after an edge
// insertion or deletion between existing nodes u and v: landmark distances
// around the endpoints are re-relaxed up to 2 hops. The session write path
// rewrites both storage records itself.
func (s *System) refreshEdge(u, v graph.NodeID) {
	if s.idx == nil {
		return
	}
	s.idx.RefreshAround(s.g, u, 2)
	s.idx.RefreshAround(s.g, v, 2)
	region := map[graph.NodeID]struct{}{u: {}, v: {}}
	for w := range s.g.BFSBounded(u, 2, graph.Both) {
		region[w] = struct{}{}
	}
	for w := range s.g.BFSBounded(v, 2, graph.Both) {
		region[w] = struct{}{}
	}
	for w := range region {
		s.assign.SetNodeDistances(s.idx, w)
	}
}

// nearStorageSlot maps a processor slot to its affinity storage slot: the
// active storage members in slot order, indexed by the processor modulo
// their count (-1 when the tier has no active member). The StorageAffinity
// cost model and the placement planner both resolve locality through this
// one function, so the slot the planner migrates a hot record to is
// exactly the slot the cost model bills as near.
func (s *System) nearStorageSlot(proc int) int {
	v := s.store.View()
	n := 0
	for i := 0; i < v.Slots(); i++ {
		if v.Status(i) == topology.Active {
			n++
		}
	}
	if n == 0 || proc < 0 {
		return -1
	}
	want := proc % n
	for i := 0; i < v.Slots(); i++ {
		if v.Status(i) == topology.Active {
			if want == 0 {
				return i
			}
			want--
		}
	}
	return -1
}
