package rpc

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kvstore"
	"repro/internal/query"
	"repro/internal/topology"
)

// StorageServer is one shard of the networked storage tier: a
// kvstore.Shard — the same log, WAL, compaction and recovery the in-process
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
	// misses counts reads of keys this shard does not hold. (The shard's own
	// Misses is kept by the virtual-time Store, after replica fail-over; a
	// shard behind a listener sees only the reads sent to it.)
	misses atomic.Int64
	// writes is the shard's monotonic write counter: every put is stamped
	// with the next value (a batch takes a range of them), so the shard's
	// newest-wins compare always installs it. It resumes from the recovered
	// durable version.
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
// crash: every put is appended to a WAL under dir (dir/shard.wal) before it
// is acked, and the WAL compacts whenever the shard cleans its records.
// Starting over a directory left by a previous (even killed) process
// replays the WAL first — and migrates a parent-format shard.snap into it —
// so the shard comes back warm with every acked write. With
// fsync true each append is fsynced (machine-crash durable); false keeps
// a single write syscall per put frame (process-death durable).
func NewStorageServerDurable(addr, dir string, fsync bool) (*StorageServer, error) {
	if dir == "" {
		return NewStorageServer(addr)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rpc: storage wal dir: %w", err)
	}
	shard, err := kvstore.OpenShard(filepath.Join(dir, "shard.wal"), fsync)
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

// SyncWAL fsyncs the shard's WAL so every acked write is durable against
// machine crash, not just process death. No-op without durability.
func (s *StorageServer) SyncWAL() error { return s.shard.Sync() }

func (s *StorageServer) handle(_ context.Context, req *Request) Response {
	s.requests.Add(1)
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpMultiGet:
		resp := Response{OK: true, Values: make([][]byte, len(req.Keys)), Founds: make([]bool, len(req.Keys))}
		_, misses := s.shard.GetInto(req.Keys, resp.Values, resp.Founds)
		s.misses.Add(int64(misses))
		if req.OutOnly {
			for i, v := range resp.Values {
				resp.Values[i] = gstore.Project(v, graph.Out)
			}
		}
		return resp
	case OpMultiPut:
		n := uint64(len(req.Keys))
		if n == 0 || uint64(len(req.Values)) != n {
			return errorResponse(fmt.Errorf("%w: multiput carries %d values for %d keys", query.ErrBadQuery, len(req.Values), n))
		}
		if err := s.shard.PutBatch(req.Keys, req.Values, s.writes.Add(n)-n+1); err != nil {
			return errorResponse(fmt.Errorf("storage wal: %w", err))
		}
		return Response{OK: true}
	case OpDrop:
		// A rolled-back write's restore of a record it created: the keys
		// leave the shard, and on a durable shard each drop is WAL-logged so
		// a restart replays it and cannot resurrect the dropped record.
		if len(req.Keys) == 0 {
			return errorResponse(fmt.Errorf("%w: drop carries no keys", query.ErrBadQuery))
		}
		for _, k := range req.Keys {
			if _, err := s.shard.Drop(k); err != nil {
				return errorResponse(fmt.Errorf("storage wal: %w", err))
			}
		}
		return Response{OK: true}
	case OpStats:
		st := s.Stats()
		return Response{OK: true, Stats: &st}
	}
	return errorResponse(fmt.Errorf("storage: unknown op %q", req.Op))
}

// Stats returns the request total and the shard's row (Shard.Counters),
// whose Misses is the listener's count of reads of keys the shard lacks.
func (s *StorageServer) Stats() Stats {
	c := s.shard.Counters()
	c.Misses = s.misses.Load()
	return Stats{Role: "storage", Requests: s.requests.Load(), Storage: &c}
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

// StorageClient is the one way a process reaches the storage tier: it
// shards keys over a set of storage servers, one connection per shard,
// and resolves "where does key k live" in exactly one place (placement).
// Placement is kvstore.Place over the shard list, the function the
// in-process store places by: murmur at R = 1, rendezvous over R shards at
// R >= 2, so a key lives on R shards (all of them when there are fewer) and
// nowhere else. There is one write path, PutBatch — one OpMultiPut frame per
// shard, every replica or fail unacked — under the loader's chunks, a
// mutation's records and its roll-back alike; reads prefer the
// highest-scored healthy replica with transparent failover: a shard that
// fails a call is marked down (per-replica health), its keys retry on their
// next replica, and a background probe revives it when it answers pings
// again. Processors read through one, the loader writes through one, and the
// router mutates through one.
type StorageClient struct {
	pools    []*Pool
	replicas int
	slots    []int // 0..n-1, the placement domain

	down      []atomic.Bool
	failovers atomic.Int64

	probeWake chan struct{}      // markDown → probeLoop: a shard just went down
	probeStop context.CancelFunc // ends probeLoop and its in-flight ping
}

// DialStorageReplicated connects to every storage shard with the given
// replication factor, verifying each shard is reachable. The loader, the
// router and every processor of a deployment must agree on the factor —
// placement is client-side, exactly like the hash placement it generalises.
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
	pools, err := dialPools(addrs)
	if err != nil {
		return nil, err
	}
	return newStorageClient(pools, replicas), nil
}

// dialPools opens one pool per address and verifies each daemon answers; on
// a failure the pools opened so far are closed again.
func dialPools(addrs []string) ([]*Pool, error) {
	pools := make([]*Pool, 0, len(addrs))
	for _, a := range addrs {
		p := NewPool(a, 0)
		pools = append(pools, p)
		if err := p.Ping(context.Background()); err != nil {
			closeAll(pools)
			return nil, err
		}
	}
	return pools, nil
}

// closeAll closes every pool of a slot-indexed list, where nil marks a
// slot whose member left.
func closeAll(pools []*Pool) {
	for _, p := range pools {
		if p != nil {
			p.Close()
		}
	}
}

// newStorageClient builds a client over verified shard pools (slot i is
// pools[i]), which Close then closes with it. Fewer shards than replicas
// places every key on all of them — a router seeded with part of the tier.
func newStorageClient(pools []*Pool, replicas int) *StorageClient {
	sc := &StorageClient{
		pools:     pools,
		replicas:  replicas,
		slots:     make([]int, len(pools)),
		down:      make([]atomic.Bool, len(pools)),
		probeWake: make(chan struct{}, 1),
	}
	for i := range sc.slots {
		sc.slots[i] = i
	}
	// The probe runs in every mode: even unreplicated clients mark a
	// shard down after a failure, and only the probe clears the flag when
	// the shard answers again.
	ctx, stop := context.WithCancel(context.Background())
	sc.probeStop = stop
	go sc.probeLoop(ctx)
	return sc
}

// Close closes every shard pool and stops the health probe.
func (sc *StorageClient) Close() {
	sc.probeStop()
	closeAll(sc.pools)
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
func (sc *StorageClient) probeLoop(root context.Context) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	state := make([]probeState, len(sc.pools))
	// The timer is armed only while some shard is down; with every shard
	// healthy the loop waits for markDown's signal alone. A periodic wake-up
	// is not free in an otherwise event-driven daemon: each time a thread
	// goes idle with a timer pending it breaks the netpoller out of its wait
	// — an eventfd write and read, ≈ 0.15 I/O system calls per query on a
	// busy router.
	t := time.NewTimer(probeBase)
	t.Stop()
	armed := false
	for {
		select {
		case <-root.Done():
			return
		case <-sc.probeWake:
			// A call just failed: the first re-ping comes probeBase later,
			// unless a probe of another shard is already due sooner.
			if !armed {
				t.Reset(probeBase)
				armed = true
			}
			continue
		case <-t.C:
			armed = false
		}
		now := time.Now()
		// While anything is down, wake at least every probeBase.
		wake := now.Add(probeBase)
		anyDown := false
		for i := range sc.down {
			if !sc.down[i].Load() {
				state[i] = probeState{}
				continue
			}
			anyDown = true
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
		if !anyDown {
			continue
		}
		d := time.Until(wake)
		if d < probeBase/4 {
			d = probeBase / 4
		}
		t.Reset(d)
		armed = true
	}
}

// markDown records a failed shard call and wakes the probe.
func (sc *StorageClient) markDown(shard int) {
	sc.failovers.Add(1)
	sc.down[shard].Store(true)
	select {
	case sc.probeWake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// placement appends key's replica shards (primary first) to dst:
// kvstore.Place over the shard list the client was built over with murmur at
// R = 1 — the rule the in-process store places by. An empty shard list places
// nothing. Client-side placement only works because every reader and every
// writer of a deployment computes exactly this.
func (sc *StorageClient) placement(key uint64, dst []int) []int {
	return kvstore.Place(key, sc.slots, sc.replicas, kvstore.MurmurPlacer{}, dst)
}

// call sends one request to one shard, marking the shard down when the
// call fails for any reason but the caller's own cancellation.
func (sc *StorageClient) call(ctx context.Context, shard int, req *Request) (Response, error) {
	if shard < 0 || shard >= len(sc.pools) {
		return Response{}, &remoteError{addr: "storage", msg: fmt.Sprintf("no shard in slot %d", shard), kind: query.ErrUnavailable}
	}
	resp, err := sc.pools[shard].Call(ctx, req)
	if err != nil && ctx.Err() == nil {
		sc.markDown(shard)
	}
	return resp, err
}

// errUnplaced is what a key-addressed call answers on a client without
// shards, such as the one a router started without a storage view holds.
func errUnplaced(key uint64) error {
	return &remoteError{addr: "storage", msg: fmt.Sprintf("key %d: no storage shards to place it on (a router needs -storage to mutate)", key), kind: query.ErrUnavailable}
}

// Get returns key's raw stored bytes: getBatch of one.
func (sc *StorageClient) Get(ctx context.Context, key uint64) (val []byte, found bool, err error) {
	err = sc.getBatch(ctx, []uint64{key}, graph.Both, func(_ int, v []byte, ok bool) { val, found = v, ok })
	return val, found, err
}

// PutBatch stores vals[i] under keys[i] on every replica of each key's
// placement: the records are grouped by shard, as MultiGet groups its keys,
// and every shard gets its group as one OpMultiPut frame, the frames in
// flight together. Write-all, not quorum: one unreachable replica fails the
// batch unacked with the first error (down flags are advisory and skip
// nothing; the other shards' frames may have landed — the router rolls a
// mutation's back), so an acked write survives any single restart of a
// durable tier — the invariant the mutate-rolling-restart chaos scenario
// holds the deployment to — and a loader can never silently under-replicate
// a key. The values are encoded before PutBatch returns; the caller may
// reuse them.
func (sc *StorageClient) PutBatch(ctx context.Context, keys []uint64, vals [][]byte) error {
	groups := make(map[int]*Request)
	var buf [topology.MaxReplicas]int
	for i, key := range keys {
		pl := sc.placement(key, buf[:0])
		if len(pl) == 0 {
			return errUnplaced(key)
		}
		for _, shard := range pl {
			req := groups[shard]
			if req == nil {
				req = &Request{Op: OpMultiPut}
				groups[shard] = req
			}
			req.Keys = append(req.Keys, key)
			req.Values = append(req.Values, vals[i])
		}
	}
	errs := make(chan error, len(groups))
	for shard, req := range groups {
		go func(shard int, req *Request) {
			_, err := sc.call(ctx, shard, req)
			errs <- err
		}(shard, req)
	}
	var firstErr error
	for range groups {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// dropAt tombstones drops[slot] on each slot, one OpDrop frame per slot: the
// records a rolled-back write created. Best effort: the caller ignores a
// failure.
func (sc *StorageClient) dropAt(ctx context.Context, drops map[int][]uint64) {
	for slot, keys := range drops {
		_, _ = sc.call(ctx, slot, &Request{Op: OpDrop, Keys: keys})
	}
}

// getBatch is the client's one read: the raw stored bytes under keys, as a
// read in direction dir ships them (graph.Out sets the frame's OutOnly bit,
// and each shard answers with out-prefixes), handed to got by position
// (got(i, …) answers keys[i]; found false means no record is stored there)
// on the caller's goroutine as each shard's reply arrives —
// so decoding one shard's records overlaps the wait for the next. A key no
// replica answered is never handed over. Keys are grouped by
// their preferred replica — the first healthy one of their placement — and
// every shard gets its group as one OpMultiGet frame, the frames in flight
// together (the networked analogue of the engine's batched frontier
// fetches). A shard that fails its frame, or answers it short, is marked
// down and its keys transparently retry on their next replica; the flags are
// advisory, so a down replica is still asked, last, and only a key with no
// answering replica left fails the call. A replica that answers "absent"
// settles it: every write is write-all and the router rolls an unacked one
// back, so replicas only diverge when a roll-back was itself interrupted —
// and the next successful write of the record re-converges them.
func (sc *StorageClient) getBatch(ctx context.Context, keys []uint64, dir graph.Direction, got func(i int, val []byte, found bool)) error {
	// tried[i] is a bitmask over keys[i]'s placement indices, set as a replica
	// is asked: a key is exhausted only once every replica has actually been
	// contacted — down flags must never skip a replica for good. A key's
	// placement is at most R slots (R <= MaxReplicas, so a uint8 mask holds
	// them), and every round either marks a new bit of a key's mask or fails
	// the key with firstErr, so no key is asked more than R times.
	tried := make([]uint8, len(keys))
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	var firstErr error
	for len(pending) > 0 {
		groups := make(map[int][]int) // shard → positions in keys
		var buf [topology.MaxReplicas]int
		for _, i := range pending {
			pl := sc.placement(keys[i], buf[:0])
			// Prefer the first untried healthy replica, falling back to
			// the first untried one of any health.
			pick := -1
			for j := range pl {
				if tried[i]&(1<<j) != 0 {
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
			switch {
			case pick >= 0:
				tried[i] |= 1 << pick
				groups[pl[pick]] = append(groups[pl[pick]], i)
			case firstErr != nil:
			case len(pl) == 0:
				firstErr = errUnplaced(keys[i])
			default:
				firstErr = &remoteError{addr: "storage", msg: fmt.Sprintf("key %d: every replica failed", keys[i]), kind: query.ErrUnavailable}
			}
		}
		type shardResult struct {
			shard int
			at    []int
			resp  Response
			err   error
		}
		results := make(chan shardResult, len(groups))
		for shard, at := range groups {
			go func(shard int, at []int) {
				sub := make([]uint64, len(at))
				for j, i := range at {
					sub[j] = keys[i]
				}
				resp, err := sc.pools[shard].Call(ctx, &Request{Op: OpMultiGet, Keys: sub, OutOnly: dir == graph.Out})
				if err == nil && (len(resp.Founds) != len(sub) || len(resp.Values) != len(sub)) {
					// A reply that does not cover the keys is a failed shard,
					// not an index to trust.
					err = &remoteError{addr: sc.pools[shard].Addr(), msg: fmt.Sprintf("got %d values for %d keys", len(resp.Values), len(sub)), kind: query.ErrUnavailable}
				}
				results <- shardResult{shard: shard, at: at, resp: resp, err: err}
			}(shard, at)
		}
		var retry []int
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
				retry = append(retry, r.at...)
				continue
			}
			for j, i := range r.at {
				got(i, r.resp.Values[j], r.resp.Founds[j])
			}
		}
		pending = retry
	}
	return firstErr
}

// readRaw fetches the stored bytes of ids into dst positionally, as a read
// in direction dir ships them — getBatch over keys, a buffer of the
// caller's that it refills and returns — nil where nothing is stored or the
// call failed first. It is the processor's miss read: the bytes are the
// reply's own, kept by no one else.
func (sc *StorageClient) readRaw(ctx context.Context, ids []graph.NodeID, dir graph.Direction, dst [][]byte, keys []uint64) ([]uint64, error) {
	keys = keys[:0]
	for _, id := range ids {
		keys = append(keys, uint64(id))
	}
	clear(dst[:len(ids)])
	err := sc.getBatch(ctx, keys, dir, func(i int, val []byte, found bool) {
		if found {
			if val == nil {
				val = []byte{} // stored but empty: corrupt, not absent
			}
			dst[i] = val
		}
	})
	return keys, err
}

// MultiGet is readRaw decoded into a map: ids nothing is stored under, or
// whose bytes do not decode, are absent from it, and what was read before a
// failure is returned with the error.
func (sc *StorageClient) MultiGet(ctx context.Context, ids []graph.NodeID) (map[graph.NodeID]gstore.Record, error) {
	raw := make([][]byte, len(ids))
	_, err := sc.readRaw(ctx, ids, graph.Both, raw, nil)
	out := make(map[graph.NodeID]gstore.Record, len(ids))
	for i, v := range raw {
		if v == nil {
			continue
		}
		rec, derr := gstore.Decode(ids[i], v)
		if derr != nil {
			if err == nil {
				err = derr
			}
			continue
		}
		out[ids[i]] = rec
	}
	return out, err
}

// loadChunk is how many bytes of encoded records LoadGraph hands PutBatch at
// a time: half the read window, so even the frame of a shard that holds
// every record of a chunk (R = number of shards) still decodes in place in
// the peer's window, keys and lengths included.
const loadChunk = frameWindow / 2

// LoadGraph bulk-loads every live node of g across the shards (all
// replicas of each key), a chunk of records per PutBatch, and encodes the
// next chunk while the last one is in flight: two buffer sets alternate,
// one being filled while the other is on the wire. Exactly one chunk is in
// flight at a time and a chunk leaves only once the one before it was
// acked, so the first error ends the load with no chunk sent after it, and
// no goroutine outlives the call. Encoding is then off the round trips'
// path: on the 60 k-record preset into two in-process shards
// (BenchmarkSetupPhases) a load took 115–121 ms at R = 1 and 134–150 ms at
// R = 2 on durable shards while every chunk was encoded between round
// trips, and 57 and 79–102 ms overlapped. A window of four chunks in flight
// measured 40–46 and 50–64 ms there, a further 15–30 ms, for a semaphore,
// a buffer free list and error collection across the window.
func (sc *StorageClient) LoadGraph(ctx context.Context, g *graph.Graph) error {
	type chunk struct {
		keys []uint64
		vals [][]byte
		buf  []byte
	}
	var chunks [2]chunk
	cur := 0 // the chunk being filled; the other may be in flight
	acked := make(chan error, 1)
	inFlight := false
	settle := func() error {
		if !inFlight {
			return nil
		}
		inFlight = false
		return <-acked
	}
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		if !g.Exists(id) {
			continue
		}
		c := &chunks[cur]
		start := len(c.buf)
		c.buf = gstore.Encode(c.buf, gstore.RecordOf(g, id))
		c.keys, c.vals = append(c.keys, uint64(id)), append(c.vals, c.buf[start:])
		if len(c.buf) < loadChunk {
			continue
		}
		if err := settle(); err != nil {
			return err
		}
		inFlight = true
		go func() { acked <- sc.PutBatch(ctx, c.keys, c.vals) }()
		cur ^= 1
		next := &chunks[cur]
		next.keys, next.vals, next.buf = next.keys[:0], next.vals[:0], next.buf[:0]
	}
	if err := settle(); err != nil {
		return err
	}
	return sc.PutBatch(ctx, chunks[cur].keys, chunks[cur].vals)
}
