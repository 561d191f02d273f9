package core

import (
	"context"
	"fmt"
	"sync"

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

	// tab holds the routing tables router.Prepare built; the mutation path
	// updates its index, assignment and embedding in place.
	tab *router.Tables

	// stMu guards the storage transition log below; the store itself
	// orders the transitions.
	stMu            sync.Mutex
	lastStorageView topology.View
	storageEvents   []metrics.EpochEvent
}

// NewSystem builds a system: loads the graph into the storage tier and
// runs whatever preprocessing the configured policy needs.
func NewSystem(g *graph.Graph, cfg Config) (*System, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
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
		if err := st.EnableDurability(kvstore.Durability{Dir: cfg.StorageDir}); err != nil {
			return nil, err
		}
	}
	graphBytes := gstore.Load(st, g)
	if s.tab, err = cfg.Prepare(g); err != nil {
		return nil, err
	}
	s.tab.Stats.GraphBytes = graphBytes
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// Graph returns the graph the system was built from. NewSystem never
// mutates it: mutations edit the stored records, and the system reads the
// graph after construction only for its label table, into which labelled
// mutations intern their labels.
func (s *System) Graph() *graph.Graph { return s.g }

// Prep returns the preprocessing statistics (Tables 2 and 3).
func (s *System) Prep() router.PrepStats { return s.tab.Stats }

// Embedding returns the node embedding: the materialised EmbedProvider
// when one is configured, the learned embedding under PolicyEmbed, nil
// otherwise.
func (s *System) Embedding() *embed.Embedding { return s.tab.Embedding }

// LandmarkIndex returns the landmark distance index (nil for baselines).
func (s *System) LandmarkIndex() *landmark.Index { return s.tab.Index }

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

// Known is the local client's check before it executes a query, a read of
// the anchors' records that bills no virtual time: nil when every id has a
// record in the storage tier, query.ErrUnknownNode naming the first that has
// none, and query.ErrUnavailable when one cannot be read. The TCP processor
// checks on its kernel's first read of the query node instead.
func (s *System) Known(ids ...graph.NodeID) error {
	dst := make([][]byte, len(ids))
	if err := s.tier.ReadBatchInto(ids, graph.Both, dst, nil); err != nil {
		return storageErr("node probe", err)
	}
	for i, v := range dst {
		if v == nil {
			return fmt.Errorf("%w: node %d has no record in the storage tier", query.ErrUnknownNode, ids[i])
		}
	}
	return nil
}

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
// a restarted process would: local WAL replay first (warm start,
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
// Section 3.4, graph updates) over the stored records; the session write
// path rewrites the records itself, to account their virtual-time cost.
func (s *System) incorporateNode(u graph.NodeID) {
	idx, emb := s.tab.Index, s.tab.Embedding
	if idx != nil {
		idx.IncorporateNode(s.tier, u)
		s.tab.Assignment.SetNodeDistances(idx, u)
	}
	switch {
	case emb == nil:
	case s.cfg.EmbedProvider != nil:
		// Provider-backed coordinates: ask the provider for the new node.
		// A failed or uncovered lookup leaves the node unembedded (NaN
		// row semantics), which ranking and routing already tolerate.
		rows, err := s.cfg.EmbedProvider.Embed(context.Background(), []graph.NodeID{u})
		if err == nil && len(rows) == 1 && rows[0] != nil {
			_ = emb.SetRow(u, rows[0])
		}
	default:
		emb.IncorporateNode(s.tier, idx, u, embed.Options{Dimensions: s.cfg.Dimensions, Seed: s.cfg.Seed})
	}
}

// refreshEdge is the routing-side incremental update after an edge
// insertion or deletion between existing nodes u and v: landmark distances
// around the endpoints are re-relaxed up to 2 hops over the stored records,
// and every relaxed node's processor distances follow. The session write
// path rewrites both storage records itself.
func (s *System) refreshEdge(u, v graph.NodeID) {
	idx := s.tab.Index
	if idx == nil {
		return
	}
	for _, end := range [2]graph.NodeID{u, v} {
		for _, w := range idx.RefreshAround(s.tier, end, 2) {
			s.tab.Assignment.SetNodeDistances(idx, w)
		}
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
