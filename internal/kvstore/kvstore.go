// Package kvstore implements the storage tier of the decoupled architecture:
// a RAMCloud-style distributed, in-memory key-value store (Section 4.1).
//
// All values live in the main memory of a set of storage servers, and every
// key lives where one deterministic rule, Place, says: on R = 1 stores the
// Placer's pick over the placement domain (MurmurHash3, RAMCloud's default,
// unless a custom Placer is given), on R >= 2 the R highest-scored
// rendezvous slots. The TCP transport's StorageClient calls the same
// function, so both transports place every key alike.
//
// The domain is a view of the epoch-versioned storage membership (a
// topology.Tracker of TierStorage members): the Active slots at R >= 2, the
// Active and Down slots at R = 1 — a down sole owner keeps its keys because
// nothing else holds them, and reads of them answer ErrNoLiveReplica until
// it revives. Reads go to the highest-scored reachable replica and fail over
// transparently; writes go to every reachable replica; deletions leave
// tombstones; membership moves with AddServer / DrainServer / FailServer /
// ReviveServer, each of which re-replicates under-replicated keys before it
// returns, so a single transition never loses availability while at least
// one live replica of each key survives. At R = 1 a membership change
// re-homes most keys, since the Placer is taken modulo the domain size, and
// AddServer / DrainServer are refused while a member is down.
//
// The store is purely functional with respect to time: latency and
// contention are modelled by the engine's network profile, which consults
// the batches ReadBatch returns (which keys landed on which server).
//
// The store is safe for concurrent use: a store-wide RWMutex orders
// membership transitions against reads, and each server shard has its own
// lock for data access. ReadBatch plans a batched read and reads it under
// one hold of the read lock, so a read sees one membership view: no
// transition lands between choosing a key's replica and reading it.
package kvstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hash"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// ErrNoLiveReplica is returned when a key (or a whole batch) cannot be
// served because every replica that may hold it is down. The engine maps
// it onto the shared query.ErrUnavailable.
var ErrNoLiveReplica = errors.New("kvstore: no live replica")

// Placer decides which of numServers domain positions owns a key on an
// R = 1 store. Implementations must be deterministic and safe for
// concurrent use.
type Placer interface {
	Place(key uint64, numServers int) int
}

// MurmurPlacer is RAMCloud's default placement: MurmurHash3 over the key,
// modulo the number of servers.
type MurmurPlacer struct {
	Seed uint64
}

// Place implements Placer.
func (m MurmurPlacer) Place(key uint64, numServers int) int {
	return int(hash.Key64(key, m.Seed) % uint64(numServers))
}

// TablePlacer places keys according to a precomputed assignment (used by
// the partitioning ablation, where the storage tier is partitioned with a
// graph-aware partitioner instead of a hash). Keys beyond the table fall
// back to murmur placement.
type TablePlacer struct {
	Assign   []int32
	Fallback MurmurPlacer
}

// Place implements Placer.
func (t TablePlacer) Place(key uint64, numServers int) int {
	if key < uint64(len(t.Assign)) {
		p := int(t.Assign[key])
		if p >= 0 && p < numServers {
			return p
		}
	}
	return t.Fallback.Place(key, numServers)
}

// Place is the storage tier's one placement rule: it appends key's replica
// slots (primary first) to dst[:0]. At replicas <= 1 that is
// domain[placer.Place(key, len(domain))], a nil placer meaning MurmurPlacer{};
// at replicas >= 2 the replicas highest-scoring rendezvous slots of domain.
// An empty domain places nothing. Pins are the caller's to check first.
func Place(key uint64, domain []int, replicas int, placer Placer, dst []int) []int {
	if replicas >= 2 {
		return topology.RendezvousN(key, domain, replicas, dst)
	}
	if len(domain) == 0 {
		return dst[:0]
	}
	if placer == nil {
		placer = MurmurPlacer{}
	}
	return append(dst[:0], domain[placer.Place(key, len(domain))])
}

// Store is the distributed key-value store: a slot-indexed set of
// in-memory server shards plus a placement rule and the storage tier's
// epoch-versioned membership.
type Store struct {
	placer   Placer // R = 1 placement; nil means MurmurPlacer{}
	replicas int

	topo    *topology.Tracker
	version atomic.Uint64

	// mu orders membership transitions (write side: add/drain/fail/revive
	// plus their synchronous re-replication) against every read and write
	// (read side), so a reader never observes a placement whose data has
	// not been moved yet.
	mu      sync.RWMutex
	servers []*Shard
	view    topology.View
	domain  []int // placement domain, ascending: Active slots (+ Down at R = 1)
	// parted marks slots cut off by an injected network partition: the
	// shard is up and its data intact, but reads and writes cannot reach
	// it and repair can neither source from nor copy to it. Placement is
	// untouched — the system does not know the link is down, which is
	// what distinguishes a netsplit from a failure.
	parted []bool
	// overrides pins individual keys to explicit slot sets, replacing the
	// slots Place gives them — the adaptive-placement subsystem's lever for
	// moving hot records toward their dominant readers. Mutated only under
	// the write side of mu (Move), read everywhere placement is computed.
	overrides map[uint64][]int
	moves     MoveStats
	// dur is the durability configuration, nil until EnableDurability.
	dur *Durability
}

// MoveStats counts the placement-override migrations executed by Move.
type MoveStats struct {
	// Moves is the number of keys migrated; MovedBytes their value bytes
	// (counted once per key, not per replica copy).
	Moves      int64
	MovedBytes int64
	// Overrides is the number of keys currently pinned away from their
	// rendezvous placement.
	Overrides int64
}

// New creates an R = 1 store with numServers shards placed by placer (nil
// means MurmurPlacer with seed 0).
func New(numServers int, placer Placer) (*Store, error) { return NewStore(numServers, 1, placer) }

// NewStore creates a store with numServers shards that places every key on
// replicas of them by Place; placer is consulted only at replicas = 1 (nil
// means MurmurPlacer with seed 0).
func NewStore(numServers, replicas int, placer Placer) (*Store, error) {
	if numServers <= 0 {
		return nil, fmt.Errorf("kvstore: need at least 1 server, got %d", numServers)
	}
	if replicas < 1 || replicas > topology.MaxReplicas {
		return nil, fmt.Errorf("kvstore: replicas = %d outside [1,%d]", replicas, topology.MaxReplicas)
	}
	if replicas > numServers {
		return nil, fmt.Errorf("kvstore: %d replicas need at least that many servers, have %d", replicas, numServers)
	}
	s := &Store{placer: placer, replicas: replicas, topo: topology.NewTierTracker(topology.TierStorage, numServers)}
	s.servers = make([]*Shard, numServers)
	for i := range s.servers {
		s.servers[i] = NewShard()
	}
	s.parted = make([]bool, numServers)
	s.installViewLocked(s.topo.View())
	return s, nil
}

// Replicas returns the replication factor.
func (s *Store) Replicas() int { return s.replicas }

// installViewLocked caches the tracker view and its placement domain: the
// Active slots, plus the Down ones at R = 1, where a down sole owner keeps
// its keys. Caller holds s.mu (or is the constructor).
func (s *Store) installViewLocked(v topology.View) {
	s.view = v
	s.domain = s.domain[:0]
	for _, m := range v.Members {
		if m.Status == topology.Active || (s.replicas == 1 && m.Status == topology.Down) {
			s.domain = append(s.domain, m.Slot)
		}
	}
}

// View returns the storage tier's current epoch-versioned membership.
func (s *Store) View() topology.View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.viewCopyLocked()
}

// viewCopyLocked returns an isolated copy of the cached view. Caller
// holds s.mu.
func (s *Store) viewCopyLocked() topology.View {
	return topology.View{Epoch: s.view.Epoch, Members: append([]topology.Member(nil), s.view.Members...)}
}

// NumServers returns the number of storage slots ever allocated (left
// members keep their slot, as in the processing tier).
func (s *Store) NumServers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.servers)
}

// partedLocked reports whether slot is cut off by an injected partition.
// Caller holds s.mu.
func (s *Store) partedLocked(slot int) bool {
	return slot >= 0 && slot < len(s.parted) && s.parted[slot]
}

// placementLocked computes key's placement set (primary first) under the
// current view, appending to dst: the pinned override slots when the key
// has been migrated (restricted to active members), otherwise Place over
// the view's domain. An override whose every slot has left the active set
// falls back to Place — repair re-homes the data the same way, so the two
// can never disagree for long. Caller holds s.mu.
func (s *Store) placementLocked(key uint64, dst []int) []int {
	if pin, ok := s.overrides[key]; ok {
		dst = dst[:0]
		for _, slot := range pin {
			if s.view.Status(slot) == topology.Active {
				dst = append(dst, slot)
			}
		}
		if len(dst) > 0 {
			return dst
		}
	}
	return Place(key, s.domain, s.replicas, s.placer, dst)
}

// readSlotLocked picks the slot a read of key goes to under the current
// view: the highest-scored reachable replica. Caller holds s.mu. A parted
// primary is routed around; when the whole placement set is parted the
// primary is returned so the read surfaces the unavailability there, as does
// a down sole owner at R = 1.
func (s *Store) readSlotLocked(key uint64) int {
	var arr [topology.MaxReplicas]int
	pl := s.placementLocked(key, arr[:0])
	if len(pl) == 0 {
		return -1
	}
	for _, slot := range pl {
		if !s.partedLocked(slot) {
			return slot
		}
	}
	return pl[0]
}

// ReplicasFor appends key's current placement set (up to R slots, primary
// first) to dst and returns it. Exposed for placement tests and
// the observability surface.
func (s *Store) ReplicasFor(key uint64, dst []int) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.placementLocked(key, dst)
}

// Put stores val under key, replacing any prior value, on every replica of
// the current placement set. Each shard copies the value into its log; the
// caller may reuse its buffer. It returns the write's version — the
// monotonic store-wide stamp the distributed write path acks to its caller
// (read-your-writes pivots on it).
func (s *Store) Put(key uint64, val []byte) uint64 {
	ver := s.version.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Put has no error return: a failed append stays in the shard's
	// Durability().Err.
	s.writeLocked(key, func(sh *Shard) { _ = sh.Put(key, val, ver) })
	return ver
}

// writeLocked applies write to the shards a write of key lands on: every
// reachable replica of the placement set. A parted replica cannot receive
// the write; the reachable replicas take it and repair catches the parted
// one up on heal. Only when the whole placement set is unreachable does
// the write land everywhere — the degenerate case a real client would retry
// until heal. Caller holds s.mu (read).
func (s *Store) writeLocked(key uint64, write func(*Shard)) {
	var arr [topology.MaxReplicas]int
	pl := s.placementLocked(key, arr[:0])
	wrote := false
	for _, slot := range pl {
		if !s.partedLocked(slot) {
			write(s.servers[slot])
			wrote = true
		}
	}
	if !wrote {
		for _, slot := range pl {
			write(s.servers[slot])
		}
	}
}

// Get returns the value stored under key. The returned slice is owned by
// the store and must not be modified. The read fails over across the key's
// replicas; a key whose only copies are on down servers reads as absent
// here (ReadBatch reports the distinction through Batch.Err).
func (s *Store) Get(key uint64) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slot := s.readSlotLocked(key)
	if slot < 0 {
		return nil, false
	}
	sv := s.servers[slot]
	var (
		v     []byte
		found bool
	)
	if s.view.Status(slot) != topology.Active || s.partedLocked(slot) {
		sv.gets.Add(1)
		sv.failovers.Add(1)
	} else if v, found = sv.Get(key); found {
		return v, true
	}
	v, found, _ = s.lookupSlowLocked(key, slot)
	// A read served by another replica is not a miss: Misses counts reads
	// of keys nobody could serve.
	if !found {
		sv.misses.Add(1)
	}
	return v, found
}

// lookupSlowLocked serves a key its preferred replica missed: the rest
// of the placement set first, then — if nothing live holds it — the down
// shards' holdings classify the key as ErrNoLiveReplica rather than
// absent. Non-placement active shards need no scan: every membership
// mutator runs its re-replication synchronously under the write lock, so
// a reader can never observe a live copy outside the placement set.
// Caller holds s.mu (read).
func (s *Store) lookupSlowLocked(key uint64, tried int) ([]byte, bool, error) {
	var arr [topology.MaxReplicas]int
	pl := s.placementLocked(key, arr[:0])
	for _, slot := range pl {
		if slot == tried || s.partedLocked(slot) {
			continue
		}
		if v, ok := s.servers[slot].peek(key); ok {
			s.servers[tried].failovers.Add(1)
			return v, true, nil
		}
	}
	// Nothing reachable holds it. If a down or parted shard does, the key
	// is unavailable, not absent — exactly what a replica map would
	// conclude.
	for _, m := range s.view.Members {
		if m.Status != topology.Down && !(m.Status == topology.Active && s.partedLocked(m.Slot)) {
			continue
		}
		if _, ok := s.servers[m.Slot].peek(key); ok {
			s.servers[tried].failovers.Add(1)
			return nil, false, fmt.Errorf("key %d only on unreachable server %d: %w", key, m.Slot, ErrNoLiveReplica)
		}
	}
	return nil, false, nil
}

// Stats returns a snapshot of shard i's counters. The store-level read
// lock is held for the whole read: membership transitions mutate shard
// accounting under the write lock (repair runs lock-free over the
// shards), so dropping s.mu before reading would race them.
func (s *Store) Stats(i int) ServerStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.servers[i].Stats()
}

// Counters returns shard slot's row of a stats snapshot (Shard.Counters;
// the zero row for a slot out of range), under the store read lock for the
// reason Stats holds it.
func (s *Store) Counters(slot int) metrics.StorageCounters {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if slot < 0 || slot >= len(s.servers) {
		return metrics.StorageCounters{}
	}
	return s.servers[slot].Counters()
}

// AddServer grows the storage tier by one empty shard and re-replicates
// the keys whose placement now includes it (~1/(N+1) of the key space,
// the rendezvous remap bound; most keys at R = 1, where the Placer is taken
// modulo the domain) before returning.
func (s *Store) AddServer() (int, topology.View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.resizableLocked(); err != nil {
		return 0, topology.View{}, err
	}
	slot, v := s.topo.Join("")
	s.servers = append(s.servers, NewShard())
	s.parted = append(s.parted, false)
	if s.dur != nil {
		if _, err := s.openLogLocked(*s.dur, slot); err != nil {
			return 0, topology.View{}, err
		}
	}
	s.installViewLocked(v)
	s.repairLocked()
	return slot, s.viewCopyLocked(), nil
}

// DrainServer removes a shard cleanly: it leaves the placement domain,
// every key it held is re-replicated onto the surviving shards, and only
// then does the member become Left and its memory get released.
func (s *Store) DrainServer(slot int) (topology.View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.resizableLocked(); err != nil {
		return topology.View{}, err
	}
	v, err := s.topo.Drain(slot)
	if err != nil {
		return topology.View{}, err
	}
	s.installViewLocked(v)
	s.repairLocked()
	if v, err = s.topo.Leave(slot); err != nil {
		return topology.View{}, err
	}
	s.installViewLocked(v)
	sv := s.servers[slot]
	sv.mu.Lock()
	sv.reset()
	if sv.log != nil {
		// The shard left for good: its durable state is garbage now.
		sv.log.discard()
		sv.log = nil
	}
	sv.mu.Unlock()
	return s.viewCopyLocked(), nil
}

// resizableLocked refuses a change of the domain's size at R = 1 while a
// member is down: the Placer would hand some of the live keys to the down
// slot, whose data repair cannot reach, and a down shard's own keys would
// have no reachable copy to re-home. Caller holds s.mu.
func (s *Store) resizableLocked() error {
	if s.replicas > 1 {
		return nil
	}
	for _, m := range s.view.Members {
		if m.Status == topology.Down {
			return fmt.Errorf("kvstore: R = 1 membership change while slot %d is down", m.Slot)
		}
	}
	return nil
}

// FailServer marks a shard as down: its data is retained but unreachable,
// and the keys it served are re-replicated from their surviving replicas
// so the tier is back at full replication before the call returns. Refused
// for the last active shard.
func (s *Store) FailServer(slot int) (topology.View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.topo.Fail(slot)
	if err != nil {
		return topology.View{}, err
	}
	s.installViewLocked(v)
	s.repairLocked()
	return s.viewCopyLocked(), nil
}

// ReviveServer returns a down shard to service. The revived shard is
// synchronised — writes it missed are copied in by
// version, deletions it missed arrive as tombstones, and copies parked on
// stand-in shards during the outage are garbage-collected.
func (s *Store) ReviveServer(slot int) (topology.View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.topo.Revive(slot)
	if err != nil {
		return topology.View{}, err
	}
	s.installViewLocked(v)
	s.repairLocked()
	return s.viewCopyLocked(), nil
}

// Repair runs one synchronous re-replication pass: every key converges to
// its newest version on every shard of its current placement set, and
// copies outside the placement set are dropped. The membership mutators
// run it automatically; it is exposed for tests and manual anti-entropy.
func (s *Store) Repair() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.repairLocked()
}

// Move migrates key onto exactly the dst slots, pinning its placement
// there until the override is cleared (or every dst slot leaves the active
// set, at which point placement falls back to Place and repair re-homes
// the data). The move is a versioned copy-then-drop executed
// atomically under the store-wide write lock: the newest live copy is
// installed on each dst slot with its version unchanged, the override is
// published, and stale copies outside dst are garbage-collected — so a
// racing reader observes either the old placement or the new one, never a
// missing key, and a racing writer (which computes placement under the
// read lock) always lands on the post-move placement with a newer version.
// It returns the value bytes migrated.
func (s *Store) Move(key uint64, dst []int) (int64, error) {
	if len(dst) == 0 || len(dst) > topology.MaxReplicas {
		return 0, fmt.Errorf("kvstore: move to %d slots outside [1,%d]", len(dst), topology.MaxReplicas)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, slot := range dst {
		if slot < 0 || slot >= len(s.servers) {
			return 0, fmt.Errorf("kvstore: move slot %d out of range [0,%d)", slot, len(s.servers))
		}
		if st := s.view.Status(slot); st != topology.Active {
			return 0, fmt.Errorf("kvstore: move slot %d is %s, not active", slot, st)
		}
		if s.partedLocked(slot) {
			return 0, fmt.Errorf("kvstore: move slot %d is parted", slot)
		}
	}
	// Source the newest reachable copy from the key's current placement
	// (live copies never exist outside it — the repair invariant).
	var arr [topology.MaxReplicas]int
	pl := s.placementLocked(key, arr[:0])
	var best entry
	found := false
	for _, slot := range pl {
		if s.partedLocked(slot) || s.view.Status(slot) != topology.Active {
			continue
		}
		if e, ok := s.servers[slot].lookup(key); ok && (!found || e.ver > best.ver) {
			best, found = e, true
		}
	}
	if !found || best.dead {
		return 0, fmt.Errorf("kvstore: key %d has no live reachable copy to move", key)
	}
	s.setOverrideLocked(key, dst)
	for _, slot := range dst {
		s.servers[slot].put(key, best, 0)
	}
	inDst := func(slot int) bool {
		for _, d := range dst {
			if d == slot {
				return true
			}
		}
		return false
	}
	for _, m := range s.view.Members {
		// A parted shard is unreachable for the GC too; heal's repair pass
		// collects its stale copy. Down and left shards hold no live data.
		if m.Status == topology.Down || m.Status == topology.Left ||
			s.partedLocked(m.Slot) || inDst(m.Slot) {
			continue
		}
		s.servers[m.Slot].drop(key, 0)
	}
	s.moves.Moves++
	s.moves.MovedBytes += int64(len(best.val))
	return int64(len(best.val)), nil
}

// setOverrideLocked records key's pinned slot set. Caller holds s.mu
// (write).
func (s *Store) setOverrideLocked(key uint64, dst []int) {
	if s.overrides == nil {
		s.overrides = make(map[uint64][]int)
	}
	s.overrides[key] = append([]int(nil), dst...)
}

// Moves returns the migration counters, including the number of keys
// currently pinned by an override.
func (s *Store) Moves() MoveStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ms := s.moves
	ms.Overrides = int64(len(s.overrides))
	return ms
}

// SizeOf returns the stored value size of key's newest reachable live
// copy (0 when absent or unreachable) without touching the read counters —
// the placement planner's cost probe.
func (s *Store) SizeOf(key uint64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slot := s.readSlotLocked(key)
	if slot < 0 || s.partedLocked(slot) || s.view.Status(slot) != topology.Active {
		return 0
	}
	v, _ := s.servers[slot].peek(key)
	return len(v)
}

// repairLocked is the re-replication pass. Caller holds s.mu (write), so
// no reader can observe a half-moved placement. Sources are the reachable
// active shards only — a down shard's data is unreachable until it
// revives, a parted shard's until the split heals, at which point each
// becomes a source (and a target) again. Every mutator runs it, R = 1
// included: a fail or revive there leaves the domain as it was, but a key
// pinned to the failed slot is written to its Placer slot meanwhile and must
// move back. The scan holds the write lock for every key; over 60 k keys on
// 4 shards it takes 10–16 ms after a fail and 22–27 ms after a revive
// (2-core Xeon).
func (s *Store) repairLocked() {
	type src struct {
		slot int
		e    entry
	}
	newest := make(map[uint64]src)
	// Draining members are still readable — a drain copies *off* them, so
	// they must be sources (with R=1 they hold the only copy).
	for _, m := range s.view.Members {
		if (m.Status != topology.Active && m.Status != topology.Draining) || s.partedLocked(m.Slot) {
			continue
		}
		s.servers[m.Slot].each(func(k uint64, e entry) {
			if b, ok := newest[k]; !ok || e.ver > b.e.ver {
				newest[k] = src{slot: m.Slot, e: e}
			}
		})
	}
	var arr [topology.MaxReplicas]int
	for k, b := range newest {
		pl := s.placementLocked(k, arr[:0])
		for _, slot := range pl {
			if s.partedLocked(slot) {
				continue
			}
			sv := s.servers[slot]
			if e, ok := sv.lookup(k); !ok || e.ver < b.e.ver {
				sv.put(k, b.e, putRepair)
			}
		}
		for _, m := range s.view.Members {
			if m.Status != topology.Active || s.partedLocked(m.Slot) {
				continue
			}
			inPl := false
			for _, p := range pl {
				if p == m.Slot {
					inPl = true
					break
				}
			}
			if !inPl {
				s.servers[m.Slot].drop(k, 0)
			}
		}
	}
}

// Batch is the portion of a multi-get directed at a single server: the
// unit the engine charges to that server's timeline. Pos holds each key's
// position in the input slice, so callers can find its value there. Err is
// nil for a served batch; it wraps ErrNoLiveReplica when the batch's keys
// have no reachable copy, and its keys then read as nil — unavailable, not
// absent.
type Batch struct {
	Server int
	Keys   []uint64
	Pos    []int32
	Err    error
}

// BatchPlan holds the reusable buffers behind ReadBatch so the hot fetch
// path reads every frontier without allocating. A plan belongs to one
// caller at a time; the batches it returns alias its buffers and are valid
// until the next ReadBatch on the same plan.
type BatchPlan struct {
	batches []Batch
	keys    []uint64 // grouped keys, one contiguous run per server
	pos     []int32  // original input position of each grouped key
	server  []int32  // scratch: owning server per input key
	count   []int32  // scratch: keys per server, then the running offsets
	order   []int32  // scratch: servers in first-seen order
}

// ReadBatch reads keys into vals (len(keys), positionally aligned): vals[i]
// is keys[i]'s value, non-nil when present (an empty value included), nil
// when absent or unavailable. It groups the keys by read destination, the
// preferred reachable replica — batches in first-seen server order, input
// order kept within each batch — and reads every group, all under one hold
// of the store's read lock, so the plan and the reads see one membership
// view. It returns the batches, reusing plan's buffers (valid until the next
// call on plan). The values are owned by the store and must not be
// modified.
func (s *Store) ReadBatch(plan *BatchPlan, keys []uint64, vals [][]byte) []Batch {
	if len(keys) == 0 {
		return nil
	}
	n := len(keys)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ns := len(s.servers)
	plan.keys = grow(plan.keys, n)
	plan.pos = grow(plan.pos, n)
	plan.server = grow(plan.server, n)
	plan.count = grow(plan.count, ns)
	plan.order = plan.order[:0]
	for i := range plan.count[:ns] {
		plan.count[i] = 0
	}
	for i, k := range keys {
		sv := int32(s.readSlotLocked(k))
		plan.server[i] = sv
		if plan.count[sv] == 0 {
			plan.order = append(plan.order, sv)
		}
		plan.count[sv]++
	}
	// Turn per-server counts into start offsets, following first-seen order
	// so the grouped runs line up with the batch order.
	off := int32(0)
	for _, sv := range plan.order {
		c := plan.count[sv]
		plan.count[sv] = off
		off += c
	}
	for i, k := range keys {
		sv := plan.server[i]
		j := plan.count[sv]
		plan.count[sv]++
		plan.keys[j] = k
		plan.pos[j] = int32(i)
	}
	plan.batches = plan.batches[:0]
	start := int32(0)
	for _, sv := range plan.order {
		end := plan.count[sv]
		b := Batch{Server: int(sv), Keys: plan.keys[start:end:end], Pos: plan.pos[start:end:end]}
		b.Err = s.readLocked(b, vals)
		if b.Err != nil {
			for _, p := range b.Pos {
				vals[p] = nil
			}
		}
		plan.batches = append(plan.batches, b)
		start = end
	}
	return plan.batches
}

// grow returns buf resized to n, reallocating only when capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// readLocked reads b's keys into vals at their input positions. A batch
// lands on an unreachable server only when its keys have no reachable
// replica — a down or parted sole owner at R = 1, or a placement set
// parted whole — and fails with ErrNoLiveReplica. A key its server misses
// goes to lookupSlowLocked, which serves it from another replica or
// classifies it absent or unavailable. Caller holds s.mu (read).
func (s *Store) readLocked(b Batch, vals [][]byte) error {
	sv := s.servers[b.Server]
	if s.view.Status(b.Server) != topology.Active || s.partedLocked(b.Server) {
		sv.failovers.Add(uint64(len(b.Keys)))
		return fmt.Errorf("server %d unreachable, no other replica of its %d keys: %w", b.Server, len(b.Keys), ErrNoLiveReplica)
	}
	misses := 0
	sv.mu.RLock()
	for j, k := range b.Keys {
		if e, ok := sv.lookup(k); ok && !e.dead {
			vals[b.Pos[j]] = e.val
		} else {
			vals[b.Pos[j]] = nil
			misses++
		}
	}
	sv.mu.RUnlock()
	sv.gets.Add(uint64(len(b.Keys)))
	var err error
	for j, k := range b.Keys {
		if misses == 0 || vals[b.Pos[j]] != nil {
			continue
		}
		v, found, e := s.lookupSlowLocked(k, b.Server)
		if found {
			vals[b.Pos[j]] = v
			misses--
		} else if e != nil && err == nil {
			err = e
		}
	}
	// Reads served by another replica are not misses: Misses counts reads
	// nobody could serve.
	sv.misses.Add(uint64(misses))
	return err
}
