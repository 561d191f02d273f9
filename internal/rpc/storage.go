package rpc

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/hash"
	"repro/internal/kvstore"
	"repro/internal/query"
	"repro/internal/topology"
)

// StorageServer is one shard of the networked storage tier: a
// kvstore.Shard — the same map, WAL, snapshot and recovery the in-process
// tier runs — served over TCP. Which servers own which key is decided
// by the clients (murmur hash when unreplicated, rendezvous hashing over
// the shard list with R replicas otherwise — as RAMCloud's coordinator
// would), so servers are completely independent. A shard can announce
// itself to a running router's storage view with Register (groutingd
// -join for the storage role; the router admits it at a new storage epoch
// and reports it under -topology / Stats) and leave it with Deregister.
// Over TCP that is membership-only: the shard's replicas are not copied
// off — reads of keys it held fail over to their other replicas, so drain
// a shard only when the replication factor covers it.
type StorageServer struct {
	ln       net.Listener
	ct       connTracker
	shard    *kvstore.Shard
	requests atomic.Int64
	// writes is the shard's monotonic write counter: every put is stamped
	// with the next value, so the shard's newest-wins compare always
	// installs it. It resumes from the recovered durable version.
	writes atomic.Uint64

	registration // announces the shard to a router's storage view
}

// NewStorageServer starts an in-memory storage shard on addr (use
// "127.0.0.1:0" for an ephemeral port) and begins serving in the
// background.
func NewStorageServer(addr string) (*StorageServer, error) {
	return serveShard(addr, kvstore.NewShard())
}

// NewStorageServerDurable starts a storage shard whose writes survive a
// crash: every put is appended to a WAL under dir before it is acked, and
// the shard compacts into a snapshot periodically. Starting over a
// directory left by a previous (even killed) process replays snapshot +
// WAL first, so the shard comes back warm with every acked write. With
// fsync true each append is fsynced (machine-crash durable); false keeps
// a single write syscall per put (process-death durable).
func NewStorageServerDurable(addr, dir string, fsync bool) (*StorageServer, error) {
	if dir == "" {
		return NewStorageServer(addr)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rpc: storage wal dir: %w", err)
	}
	shard, err := kvstore.OpenShard(filepath.Join(dir, "shard.wal"), filepath.Join(dir, "shard.snap"), 0, fsync)
	if err != nil {
		return nil, fmt.Errorf("rpc: storage recovery: %w", err)
	}
	return serveShard(addr, shard)
}

// serveShard puts shard behind a listener on addr.
func serveShard(addr string, shard *kvstore.Shard) (*StorageServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		shard.Abandon()
		return nil, fmt.Errorf("rpc: storage listen: %w", err)
	}
	s := &StorageServer{ln: ln, shard: shard}
	// The version announced on join is the shard's durable version, not the
	// write counter: an in-memory shard announces 0.
	durable := func() uint64 { return shard.Durability().DurableVersion }
	s.writes.Store(durable())
	s.registration = registration{tier: "storage", listen: s.Addr(), version: durable}
	go serve(ln, s.handle, &s.ct)
	return s, nil
}

// Addr returns the server's listen address.
func (s *StorageServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server, severing live connections — the crash
// semantics replica failover is built for. A durable shard's WAL fd is
// abandoned without a final fsync (records already written survive the
// process; callers wanting machine-crash safety call SyncWAL first — the
// daemon's graceful-shutdown path does).
func (s *StorageServer) Close() error {
	err := s.ln.Close()
	s.ct.closeAll()
	s.shard.Abandon()
	return err
}

// SetSnapshotEvery overrides how many WAL records the shard accumulates
// before compacting into a snapshot (n <= 0 restores the default). No-op
// without durability.
func (s *StorageServer) SetSnapshotEvery(n int) { s.shard.SetSnapshotEvery(n) }

// SyncWAL fsyncs the shard's WAL so every acked write is durable against
// machine crash, not just process death. No-op without durability.
func (s *StorageServer) SyncWAL() error { return s.shard.Sync() }

func (s *StorageServer) handle(_ context.Context, req *Request) Response {
	s.requests.Add(1)
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpGet:
		v, ok := s.shard.Get(req.Key)
		return Response{OK: true, Value: v, Found: ok}
	case OpMultiGet:
		resp := Response{OK: true, Values: make([][]byte, len(req.Keys)), Founds: make([]bool, len(req.Keys))}
		s.shard.GetInto(req.Keys, resp.Values, resp.Founds)
		return resp
	case OpPut:
		cp := make([]byte, len(req.Value))
		copy(cp, req.Value)
		if err := s.shard.Put(req.Key, cp, s.writes.Add(1)); err != nil {
			return errorResponse(fmt.Errorf("storage wal: %w", err))
		}
		return Response{OK: true}
	case OpDrop:
		// The tombstone half of a copy-then-drop migration: the key leaves
		// the shard, and on a durable shard the drop is WAL-logged so a
		// restart replays it and cannot resurrect the migrated-away copy.
		found, err := s.shard.Drop(req.Key)
		if err != nil {
			return errorResponse(fmt.Errorf("storage wal: %w", err))
		}
		return Response{OK: true, Found: found}
	case OpStats:
		st := s.Stats()
		return Response{OK: true, Stats: &st}
	}
	return errorResponse(fmt.Errorf("storage: unknown op %q", req.Op))
}

// Stats returns the shard's counters (request total, key reads served,
// resident keys) plus its durability counters when it runs a WAL.
func (s *StorageServer) Stats() Stats {
	ss, ds := s.shard.Stats(), s.shard.Durability()
	return Stats{
		Role:           "storage",
		Requests:       s.requests.Load(),
		Reads:          int64(ss.Gets),
		Keys:           int64(ss.Keys),
		Durable:        ds.State,
		WALBytes:       ds.WALBytes,
		WALRecords:     ds.WALRecords,
		Snapshots:      int64(ds.Snapshots),
		DurableVersion: ds.DurableVersion,
		ReplayedBytes:  ds.ReplayedBytes,
	}
}

// Down-shard probe schedule: the first re-ping comes probeBase after a
// shard is marked down (a restarted shard rejoins the read path fast),
// then the per-shard interval doubles up to probeMax with jitter, so a
// long-dead shard is not hammered in lockstep by every client. Each
// ping's timeout is the shard's current interval.
const (
	probeBase = 50 * time.Millisecond
	probeMax  = 2 * time.Second
)

// probeState tracks one down shard's re-ping schedule; the zero value
// means the shard is healthy.
type probeState struct {
	interval time.Duration // current backoff interval
	next     time.Time     // earliest next probe
}

// StorageClient shards keys over a set of storage servers, over one
// connection pool per shard. Unreplicated (replicas == 1) placement is
// the same murmur hash the legacy in-process tier uses; with replicas
// >= 2 every key lives on R shards placed by rendezvous hashing over the
// shard list, writes go to every replica, and reads prefer the
// highest-scored healthy replica with transparent failover: a shard that
// fails a call is marked down (per-replica health), its keys retry on
// their next replica, and a background probe revives it when it answers
// pings again.
type StorageClient struct {
	pools    []*Pool
	replicas int
	slots    []int // 0..n-1, the rendezvous placement domain

	down      []atomic.Bool
	failovers atomic.Int64

	// overrides pins keys migrated away from their rendezvous placement to
	// their new replica set (primary first). The router owns the
	// authoritative table and pushes complete replacements (OpPlacement);
	// entries naming slots this client does not know are ignored, so an
	// older client degrades to baseline placement instead of misreading.
	ovMu      sync.RWMutex
	overrides map[uint64][]int

	probeStop chan struct{}
	closeOnce sync.Once
}

// DialStorage connects to every storage shard unreplicated, verifying
// each is reachable.
func DialStorage(addrs []string) (*StorageClient, error) {
	return DialStorageReplicated(addrs, 1)
}

// DialStorageReplicated connects to every storage shard with the given
// replication factor, verifying each shard is reachable. The loader and
// every processor of a deployment must agree on the factor — placement is
// client-side, exactly like the hash placement it generalises.
func DialStorageReplicated(addrs []string, replicas int) (*StorageClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("rpc: no storage servers")
	}
	if replicas < 1 || replicas > topology.MaxReplicas {
		return nil, fmt.Errorf("rpc: storage replicas = %d outside [1,%d]", replicas, topology.MaxReplicas)
	}
	if replicas > len(addrs) {
		return nil, fmt.Errorf("rpc: %d storage replicas need at least that many shards, have %d", replicas, len(addrs))
	}
	sc := &StorageClient{replicas: replicas, probeStop: make(chan struct{})}
	for i, a := range addrs {
		p := NewPool(a, 0)
		if err := p.Ping(context.Background()); err != nil {
			sc.Close()
			p.Close()
			return nil, err
		}
		sc.pools = append(sc.pools, p)
		sc.slots = append(sc.slots, i)
	}
	sc.down = make([]atomic.Bool, len(sc.pools))
	// The probe runs in every mode: even unreplicated clients mark a
	// shard down after a failure, and only the probe clears the flag when
	// the shard answers again.
	go sc.probeLoop()
	return sc, nil
}

// Close closes every shard pool and stops the health probe.
func (sc *StorageClient) Close() {
	sc.closeOnce.Do(func() { close(sc.probeStop) })
	for _, p := range sc.pools {
		if p != nil {
			p.Close()
		}
	}
}

// Replicas returns the client's replication factor.
func (sc *StorageClient) Replicas() int { return sc.replicas }

// Failovers returns how many times a shard call failed and its keys were
// retried on another replica — the client-side health signal.
func (sc *StorageClient) Failovers() int64 { return sc.failovers.Load() }

// probeLoop re-pings down shards so they rejoin the read path once they
// answer again. Each down shard backs off independently: probeBase on
// first detection, doubling to probeMax, with jitter spreading probes of
// shards that died together. A successful ping clears both the health
// flag and the backoff. Close cancels the loop's context, so even an
// in-flight ping unblocks immediately.
func (sc *StorageClient) probeLoop() {
	root, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-sc.probeStop
		cancel()
	}()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	state := make([]probeState, len(sc.pools))
	t := time.NewTimer(probeBase)
	defer t.Stop()
	for {
		select {
		case <-sc.probeStop:
			return
		case <-t.C:
		}
		now := time.Now()
		// Wake at least every probeBase to notice newly-down shards (a
		// failed call flips the flag without signalling this loop).
		wake := now.Add(probeBase)
		for i := range sc.down {
			if !sc.down[i].Load() {
				state[i] = probeState{}
				continue
			}
			if state[i].interval == 0 {
				state[i] = probeState{interval: probeBase, next: now}
			}
			if state[i].next.After(now) {
				if state[i].next.Before(wake) {
					wake = state[i].next
				}
				continue
			}
			ctx, pcancel := context.WithTimeout(root, state[i].interval)
			err := sc.pools[i].Ping(ctx)
			pcancel()
			if err == nil {
				sc.down[i].Store(false)
				state[i] = probeState{}
				continue
			}
			iv := state[i].interval * 2
			if iv > probeMax {
				iv = probeMax
			}
			// Jittered next probe in [iv/2, 3iv/2): capped exponential
			// backoff without client lockstep.
			state[i] = probeState{interval: iv, next: time.Now().Add(iv/2 + time.Duration(rng.Int63n(int64(iv))))}
			if state[i].next.Before(wake) {
				wake = state[i].next
			}
		}
		d := time.Until(wake)
		if d < probeBase/4 {
			d = probeBase / 4
		}
		t.Reset(d)
	}
}

// markDown records a failed shard call.
func (sc *StorageClient) markDown(shard int) {
	sc.failovers.Add(1)
	sc.down[shard].Store(true)
}

// SetOverrides replaces the client's placement-override table. The slices
// in the map are retained, not copied — callers hand over ownership.
func (sc *StorageClient) SetOverrides(ov map[uint64][]int) {
	sc.ovMu.Lock()
	sc.overrides = ov
	sc.ovMu.Unlock()
}

// overrideFor returns key's pinned placement, or nil. A pin naming a slot
// outside this client's shard list is ignored wholesale.
func (sc *StorageClient) overrideFor(key uint64) []int {
	sc.ovMu.RLock()
	pl := sc.overrides[key]
	sc.ovMu.RUnlock()
	for _, slot := range pl {
		if slot < 0 || slot >= len(sc.pools) {
			return nil
		}
	}
	return pl
}

// placement appends key's replica shards (primary first) to dst: the
// override pin when migration moved the key, baseline placement otherwise.
func (sc *StorageClient) placement(key uint64, dst []int) []int {
	return placeKey(key, sc.overrideFor(key), sc.slots, sc.replicas, dst)
}

// placeKey is the deployment's one placement function: it appends key's
// replica slots (primary first) to dst — the pin when there is one, else
// the murmur shard when unreplicated, else the replicas highest-scoring
// rendezvous slots. slots is the placement domain, frozen at the seeded
// shard count; an empty domain places nothing. Client-side placement only
// works because every reader and the writing router compute exactly this.
func placeKey(key uint64, pin, slots []int, replicas int, dst []int) []int {
	if len(pin) > 0 {
		return append(dst[:0], pin...)
	}
	if len(slots) == 0 {
		return dst[:0]
	}
	if replicas <= 1 {
		return append(dst[:0], int(hash.Key64(key, 0)%uint64(len(slots))))
	}
	return topology.RendezvousN(key, slots, replicas, dst)
}

// shardFor returns the shard a read of key prefers.
func (sc *StorageClient) shardFor(key uint64) int {
	var buf [topology.MaxReplicas]int
	return sc.placement(key, buf[:0])[0]
}

// Put stores one encoded record on every replica of its placement set.
// Shards marked down are skipped on the first pass (their copy is
// repaired by reloading) — but the flag is advisory, so if no replica
// looked up, every placement shard is tried anyway. The write fails only
// when no replica accepted it.
func (sc *StorageClient) Put(ctx context.Context, key uint64, value []byte) error {
	var buf [topology.MaxReplicas]int
	pl := sc.placement(key, buf[:0])
	var firstErr error
	wrote := 0
	tryPut := func(shard int) {
		if _, err := sc.pools[shard].Call(ctx, &Request{Op: OpPut, Key: key, Value: value}); err != nil {
			// Don't poison the health flags with our own cancellation.
			if ctx.Err() == nil {
				sc.markDown(shard)
			}
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		wrote++
	}
	var tried uint8
	for i, shard := range pl {
		if sc.down[shard].Load() {
			continue
		}
		tried |= 1 << i
		tryPut(shard)
	}
	if wrote == 0 {
		for i, shard := range pl {
			if tried&(1<<i) != 0 {
				continue
			}
			tryPut(shard)
		}
	}
	if wrote == 0 {
		if firstErr != nil {
			return firstErr
		}
		return &remoteError{addr: "storage", msg: fmt.Sprintf("no live replica accepted key %d", key), kind: query.ErrUnavailable}
	}
	return nil
}

// MultiGet fetches the records for ids, grouping keys by their preferred
// replica and issuing the per-shard multigets concurrently (the networked
// analogue of the engine's batched frontier fetches). A shard that fails
// mid-call is marked down and its keys transparently retry on their next
// replica; only a key with no answering replica left fails the call.
func (sc *StorageClient) MultiGet(ctx context.Context, ids []graph.NodeID) (map[graph.NodeID]gstore.Record, error) {
	out := make(map[graph.NodeID]gstore.Record, len(ids))
	// tried is a bitmask over each key's placement indices: a key is
	// exhausted only once every replica has actually been contacted —
	// down flags are advisory and must never skip a replica for good.
	tried := make(map[graph.NodeID]uint8, len(ids))
	pending := ids
	var firstErr error
	for round := 0; len(pending) > 0 && round <= sc.replicas; round++ {
		groups := make(map[int][]graph.NodeID)
		chosen := make(map[graph.NodeID]int, len(pending))
		var buf [topology.MaxReplicas]int
		for _, id := range pending {
			pl := sc.placement(uint64(id), buf[:0])
			// Prefer the first untried healthy replica, falling back to
			// the first untried one of any health.
			pick := -1
			for j := range pl {
				if tried[id]&(1<<j) != 0 {
					continue
				}
				if pick < 0 {
					pick = j
				}
				if !sc.down[pl[j]].Load() {
					pick = j
					break
				}
			}
			if pick < 0 {
				if firstErr == nil {
					firstErr = &remoteError{addr: "storage", msg: fmt.Sprintf("key %d: every replica failed", id), kind: query.ErrUnavailable}
				}
				continue
			}
			chosen[id] = pick
			groups[pl[pick]] = append(groups[pl[pick]], id)
		}
		type shardResult struct {
			shard int
			ids   []graph.NodeID
			resp  Response
			err   error
		}
		results := make(chan shardResult, len(groups))
		for shard, gids := range groups {
			go func(shard int, gids []graph.NodeID) {
				keys := make([]uint64, len(gids))
				for i, id := range gids {
					keys[i] = uint64(id)
				}
				resp, err := sc.pools[shard].Call(ctx, &Request{Op: OpMultiGet, Keys: keys})
				results <- shardResult{shard: shard, ids: gids, resp: resp, err: err}
			}(shard, gids)
		}
		var retry []graph.NodeID
		for range groups {
			r := <-results
			if r.err != nil {
				// The caller gave up (ctx done) — don't burn the health
				// flags or retries on our own cancellation.
				if ctx.Err() != nil {
					if firstErr == nil {
						firstErr = r.err
					}
					continue
				}
				sc.markDown(r.shard)
				for _, id := range r.ids {
					tried[id] |= 1 << chosen[id]
				}
				retry = append(retry, r.ids...)
				continue
			}
			for i, id := range r.ids {
				if !r.resp.Founds[i] {
					continue
				}
				rec, err := gstore.Decode(graph.NodeID(id), r.resp.Values[i])
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				out[id] = rec
			}
		}
		pending = retry
	}
	return out, firstErr
}

// LoadGraph bulk-loads every live node of g across the shards (all
// replicas of each key).
func (sc *StorageClient) LoadGraph(ctx context.Context, g *graph.Graph) error {
	buf := make([]byte, 0, 1024)
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		if !g.Exists(id) {
			continue
		}
		buf = gstore.Encode(buf[:0], gstore.RecordOf(g, id))
		if err := sc.Put(ctx, uint64(id), buf); err != nil {
			return err
		}
	}
	return nil
}
