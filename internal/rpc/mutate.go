package rpc

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/placement"
	"repro/internal/query"
	"repro/internal/topology"
)

// The router is the networked deployment's single writer: OpMutate and
// OpMigrate both serialise on mutMu, so every record rewrite is a clean
// read-modify-write against the storage tier and a migration can never
// race a mutation. Acked means everywhere: a mutation's record rewrites
// land on every replica of the key's placement before the ack, and the
// rewritten keys are evicted from every live processor's cache first —
// read-your-writes for any client of the deployment. A write that cannot
// reach every replica (or every cache) fails without acking; since every
// mutation is idempotent, the client retries it safely.

// migrateTimeout bounds an automatic background migration cycle;
// rollbackTimeout the restore of an unacked mutation's pre-images, which
// runs detached from the request whose context may be what failed it.
const (
	migrateTimeout  = 30 * time.Second
	rollbackTimeout = 2 * time.Second
)

// mutate applies a batch of mutations in order, stopping at the first
// failure. Response.Applied counts the applied prefix, which stays
// applied — the same contract as the virtual-time Session.Mutate.
func (r *RouterServer) mutate(ctx context.Context, muts []Mutation) Response {
	if len(muts) == 0 {
		return errorResponse(fmt.Errorf("%w: mutate request carries no mutations", query.ErrBadQuery))
	}
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	for i := range muts {
		if err := r.applyMutation(ctx, &muts[i]); err != nil {
			resp := errorResponse(err)
			resp.Applied = i
			return resp
		}
		r.mutations.Add(1)
	}
	return Response{OK: true, Applied: len(muts)}
}

// applyMutation executes one mutation end to end. Caller holds mutMu.
func (r *RouterServer) applyMutation(ctx context.Context, m *Mutation) error {
	if err := query.ValidateMutation(m.Op, m.Node, m.To); err != nil {
		return err
	}
	lab, err := r.internLabel(m.Label)
	if err != nil {
		return err
	}
	switch m.Op {
	case query.MutUpsertNode:
		rec, pre, err := r.loadRecord(ctx, uint64(m.Node))
		if err != nil {
			return err
		}
		if !pre.found {
			rec = gstore.Record{Node: m.Node}
		}
		rec.NodeLabel = lab
		return r.commit(ctx, write{&rec, pre})
	case query.MutAddEdge:
		ru, rv, preU, preV, err := r.loadEndpoints(ctx, m)
		if err != nil {
			return err
		}
		// Ensure both directions independently: a half-written edge left by
		// an earlier failed attempt heals on retry instead of sticking.
		addedOut := ru.EnsureOut(m.To, lab)
		addedIn := rv.EnsureIn(m.Node, lab)
		switch {
		case addedOut && addedIn:
			return r.commit(ctx, write{ru, preU}, write{rv, preV})
		case addedOut:
			return r.commit(ctx, write{ru, preU})
		case addedIn:
			return r.commit(ctx, write{rv, preV})
		}
		// Fully present already: idempotent success, but still re-evict —
		// if an earlier attempt wrote the records and failed only its
		// eviction fan-out, this retry is what restores read-your-writes.
		return r.evictEverywhere(ctx, []uint64{uint64(m.Node), uint64(m.To)})
	case query.MutRemoveEdge:
		ru, rv, preU, preV, err := r.loadEndpoints(ctx, m)
		if err != nil {
			return err
		}
		removedOut := ru.RemoveOut(m.To)
		removedIn := rv.RemoveIn(m.Node)
		switch {
		case removedOut && removedIn:
			return r.commit(ctx, write{ru, preU}, write{rv, preV})
		case removedOut:
			return r.commit(ctx, write{ru, preU})
		case removedIn:
			return r.commit(ctx, write{rv, preV})
		}
		// No such edge — but re-evict first, for the same retry-after-
		// failed-eviction reason as above; an eviction that cannot ack
		// keeps the mutation retriable instead of misreporting conflict.
		if err := r.evictEverywhere(ctx, []uint64{uint64(m.Node), uint64(m.To)}); err != nil {
			return err
		}
		return fmt.Errorf("%w: remove edge %d->%d: no such edge", query.ErrConflict, m.Node, m.To)
	}
	return nil
}

// internLabel resolves a mutation's label string against the loaded
// graph's label table — the table the loader encoded every record with, so
// ids agree. Routers started without the graph accept only unlabelled
// mutations.
func (r *RouterServer) internLabel(s string) (graph.Label, error) {
	if s == "" {
		return 0, nil
	}
	if r.g == nil {
		return 0, fmt.Errorf("%w: labelled mutations need the router started with the graph (groutingd -graph)", query.ErrBadQuery)
	}
	return r.g.InternLabel(s), nil
}

// preimage is a record's stored bytes as they were before the mutation,
// kept so a partially failed write-all can restore the replicas it
// already touched.
type preimage struct {
	key   uint64
	val   []byte
	found bool
}

// write pairs a rewritten record with its pre-image.
type write struct {
	rec *gstore.Record
	pre preimage
}

// loadEndpoints fetches both endpoint records of an edge mutation (with
// their pre-images); either one missing is a conflict.
func (r *RouterServer) loadEndpoints(ctx context.Context, m *Mutation) (*gstore.Record, *gstore.Record, preimage, preimage, error) {
	var none preimage
	ru, preU, err := r.loadRecord(ctx, uint64(m.Node))
	if err != nil {
		return nil, nil, none, none, err
	}
	rv, preV, err := r.loadRecord(ctx, uint64(m.To))
	if err != nil {
		return nil, nil, none, none, err
	}
	if !preU.found || !preV.found {
		missing := m.Node
		if preU.found {
			missing = m.To
		}
		return nil, nil, none, none, fmt.Errorf("%w: edge %d->%d: endpoint %d has no record", query.ErrConflict, m.Node, m.To, missing)
	}
	return &ru, &rv, preU, preV, nil
}

// loadRecord reads and decodes key's record, returning the raw stored
// bytes alongside as the write path's roll-back pre-image.
func (r *RouterServer) loadRecord(ctx context.Context, key uint64) (gstore.Record, preimage, error) {
	val, found, err := r.storage.Get(ctx, key)
	pre := preimage{key: key, val: val, found: found}
	if err != nil || !found {
		return gstore.Record{}, pre, err
	}
	rec, err := gstore.Decode(graph.NodeID(key), val)
	if err != nil {
		return gstore.Record{}, pre, err
	}
	return rec, pre, nil
}

// commit writes the rewritten records to every replica, then evicts them
// from every live processor's cache. Only after both does the mutation
// ack — a reader can never be served a pre-write cache entry afterwards.
//
// The records travel as one PutBatch — one frame and one WAL write per
// shard for the whole mutation. A write-all that fails on any shard is
// rolled back: every record of the mutation gets its pre-image restored on
// every reachable replica, so an unacked mutation leaves the tier as it
// found it instead of with divergent replicas (the read-modify-write of a
// later retry reads one replica and would otherwise conclude a half-written
// side needs nothing, leaving the stale copies stale forever). The roll-back
// is itself best effort — a replica that dies inside the window keeps a
// stale copy until the next successful mutation rewrites the record.
func (r *RouterServer) commit(ctx context.Context, ws ...write) error {
	keys := make([]uint64, len(ws))
	vals := make([][]byte, len(ws))
	for i, w := range ws {
		keys[i], vals[i] = uint64(w.rec.Node), gstore.Encode(nil, w.rec)
	}
	if err := r.storage.PutBatch(ctx, keys, vals); err != nil {
		r.rollback(ctx, ws)
		return err
	}
	return r.evictEverywhere(ctx, keys)
}

// rollback restores the pre-images of the given writes on every reachable
// replica and re-evicts the keys, all best effort — the mutation is
// already failing unacked; this pass only narrows the divergence window.
// It runs detached from the request's ctx: an expired or cancelled request
// is the commonest reason to be here, and on that ctx no call would leave.
func (r *RouterServer) rollback(ctx context.Context, ws []write) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rollbackTimeout)
	defer cancel()
	keys := make([]uint64, 0, len(ws))
	var arr [topology.MaxReplicas]int
	for _, w := range ws {
		keys = append(keys, w.pre.key)
		for _, slot := range r.storage.placement(w.pre.key, arr[:0]) {
			if w.pre.found {
				_ = r.storage.putAt(ctx, slot, w.pre.key, w.pre.val)
			} else {
				_ = r.storage.dropAt(ctx, slot, w.pre.key)
			}
		}
	}
	_ = r.evictEverywhere(ctx, keys)
}

// procTarget pairs a processor slot with its pool.
type procTarget struct {
	slot int
	pool *Pool
}

// liveProcs snapshots every processor that may still answer queries
// (anything not Left — draining members finish in-flight work on the old
// view, so their caches matter too).
func (r *RouterServer) liveProcs() []procTarget {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []procTarget
	for slot, p := range r.pools {
		if p != nil && r.rt.Status(slot) != topology.Left {
			out = append(out, procTarget{slot: slot, pool: p})
		}
	}
	return out
}

// evictEverywhere fans OpEvict out to every live processor and requires
// every ack: a processor that cannot confirm the eviction could serve the
// pre-write record, so the mutation must not ack either.
func (r *RouterServer) evictEverywhere(ctx context.Context, keys []uint64) error {
	if len(keys) == 0 {
		return nil
	}
	procs := r.liveProcs()
	errs := make(chan error, len(procs))
	for _, t := range procs {
		go func(t procTarget) {
			_, err := t.pool.Call(ctx, &Request{Op: OpEvict, Keys: keys})
			errs <- err
		}(t)
	}
	var firstErr error
	for range procs {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cache eviction: %w", err)
		}
	}
	return firstErr
}

// pushOverridesTo hands one pool the complete current override table.
// Empty tables are not pushed — the processor's default (no pins) already
// matches.
func (r *RouterServer) pushOverridesTo(ctx context.Context, pool *Pool) error {
	ov := r.storage.pins()
	if len(ov) == 0 {
		return nil
	}
	_, err := pool.Call(ctx, &Request{Op: OpPlacement, Overrides: ov})
	return err
}

// routerEnv adapts the router's storage client to the placement planner's
// Env. Locality mirrors the virtual-time engine's nearStorageSlot:
// processor slot i's near shard is i mod the seeded shard count.
type routerEnv struct {
	sc  *StorageClient
	ctx context.Context
}

func (e routerEnv) Primary(key uint64) int {
	var buf [topology.MaxReplicas]int
	pl := e.sc.placement(key, buf[:0])
	if len(pl) == 0 {
		return -1
	}
	return pl[0]
}

func (e routerEnv) Replicas(key uint64, dst []int) []int { return e.sc.placement(key, dst) }

func (e routerEnv) SizeOf(key uint64) int {
	val, found, err := e.sc.Get(e.ctx, key)
	if err != nil || !found {
		return 0
	}
	return len(val)
}

func (e routerEnv) NearSlot(proc int) int {
	if len(e.sc.slots) == 0 || proc < 0 {
		return -1
	}
	return proc % len(e.sc.slots)
}

func (e routerEnv) ReplicaTarget() int { return e.sc.Replicas() }

// migrate runs one adaptive-placement cycle: drain heat from the
// processors, plan bounded moves, and execute each as a versioned
// copy-then-drop relocation a racing reader can never observe as wrong —
// the copy lands on the new shards first, then every processor's placement
// pins are replaced, and only once every processor acked the new table are
// the old copies dropped. Response.Applied is the number of records moved.
func (r *RouterServer) migrate(ctx context.Context) Response {
	if r.planner == nil {
		return errorResponse(fmt.Errorf("%w: adaptive placement is not enabled on this router", query.ErrBadQuery))
	}
	r.mutMu.Lock()
	defer r.mutMu.Unlock()

	// Drain heat, attributed to each reporting processor's slot. A
	// processor that does not answer simply contributes none this cycle.
	for _, t := range r.liveProcs() {
		resp, err := t.pool.Call(ctx, &Request{Op: OpHeat})
		if err != nil {
			continue
		}
		for _, hk := range resp.Hot {
			r.heat.Record(hk.Key, t.slot, hk.Reads)
		}
	}

	type executed struct {
		move placement.Move
		old  []int
	}
	var copied []executed
	for _, m := range r.planner.Plan(r.heat, routerEnv{sc: r.storage, ctx: ctx}) {
		// Copy the record onto every destination slot, then pin it there;
		// the move only counts when every destination acked.
		old := r.storage.placement(m.Key, nil)
		val, found, err := r.storage.Get(ctx, m.Key)
		ok := err == nil && found
		for i := 0; ok && i < len(m.To); i++ {
			ok = r.storage.putAt(ctx, m.To[i], m.Key, val) == nil
		}
		r.planner.Executed(m, ok)
		if !ok {
			continue
		}
		r.storage.pin(m.Key, slices.Clone(m.To))
		copied = append(copied, executed{move: m, old: old})
	}

	if len(copied) > 0 {
		// Replace every processor's pin table; the old copies may only be
		// dropped once no reader can still resolve to them.
		allPushed := true
		for _, t := range r.liveProcs() {
			if err := r.pushOverridesTo(ctx, t.pool); err != nil {
				allPushed = false
			}
		}
		// Then tombstone each key on the old slots its new placement does
		// not reuse. Best effort: a shard that misses the drop keeps a stale
		// copy (replayed on restart) the pins already hide from every reader.
		if allPushed {
			for _, d := range copied {
				for _, slot := range d.old {
					if !slices.Contains(d.move.To, slot) {
						_ = r.storage.dropAt(ctx, slot, d.move.Key)
					}
				}
			}
		}
	}
	r.heat.Decay()
	return Response{OK: true, Applied: len(copied)}
}
