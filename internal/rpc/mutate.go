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
// race a mutation. A mutation is two storage round trips: the pre-images of
// its records come back in one batched read, and the rewrites land on every
// replica of each key's placement as one PutBatch. A write that cannot reach
// every replica fails without acking; since every mutation is idempotent, the
// client retries it safely.
//
// Acked means every replica took the write and every query the router
// routes from then on is preceded, at its processor, by the invalidation of
// the rewritten records. No frame is sent for that: between the storage write
// and the ack the keys are queued on every processor slot that has not Left
// (invalidate), each with its edits — gstore.AppendEdits from the decoded
// pre-image to the rewrite, or an empty entry, which evicts, when a rollback
// or a retry with nothing to write queues the key — and every OpExecute frame
// the router forwards to a slot takes the slot's whole queue along (forward):
// the keys as Request.Keys, their edits as Request.Values and the sequence
// number past them as Request.Version. Before it looks at the frame's queries
// the processor updates its cached copies with the edits, or, for a frame
// older than one it already applied, evicts the keys. A queue is retired by
// sequence number when a frame that carried it is answered OK: pooled
// connections reorder frames, so a backlog keeps riding every frame to its
// slot until then, and a failed or cancelled call retires nothing. What this
// gives up against an eviction fan-out is "every cache is clean at ack time"
// for a reader that bypasses the router and asks a processor directly;
// nothing the router serves can tell the difference. The queues are router
// memory: a router that restarts begins, like a joining processor, with
// nothing queued and lower sequence numbers, which the processors answer with
// evictions; restart the processors (and their caches) with it.
//
// A processor that is handed no frames — none routed to it, or it stopped
// answering — accumulates a backlog. Past maxBacklog keys the next mutation
// sends that slot its backlog's keys as one explicit OpEvict before touching
// storage, and fails unacked when the processor cannot confirm it: the
// fan-out's rule, now the exception.

// migrateTimeout bounds an automatic background migration cycle;
// rollbackTimeout the restore of an unacked mutation's pre-images, which
// runs detached from the request whose context may be what failed it.
const (
	migrateTimeout  = 30 * time.Second
	rollbackTimeout = 2 * time.Second
)

// maxBacklog is how many invalidations may wait on one processor slot before
// a mutation stops to deliver them itself. Any routed traffic keeps a queue
// far below it: under hash routing at the benchmark's 1,250 op/s every
// processor is handed a frame within a few milliseconds, a handful of keys.
const maxBacklog = 256

// mutate applies a batch of mutations in order, stopping at the first
// failure. Response.Applied counts the applied prefix, which stays
// applied — the same contract as the virtual-time Session.Mutate.
func (r *RouterServer) mutate(ctx context.Context, muts []query.Mutation) Response {
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

// applyMutation executes one mutation end to end: it reads the pre-images of
// the records the mutation touches, edits them with gstore.Apply — the edit
// the virtual-time engine makes — and commits the ones that changed. Caller
// holds mutMu.
func (r *RouterServer) applyMutation(ctx context.Context, m *query.Mutation) error {
	if err := m.Validate(); err != nil {
		return err
	}
	lab, err := r.internLabel(m.Label)
	if err != nil {
		return err
	}
	if err := r.flushBacklogs(ctx); err != nil {
		return err
	}
	keys := []uint64{uint64(m.Node), uint64(m.To)}
	if m.Op == query.MutUpsertNode {
		keys = keys[:1]
	}
	recs, pres, err := r.loadRecords(ctx, keys...)
	if err != nil {
		return err
	}
	// gstore.Apply edits recs; the copy keeps the pre-images the edits
	// shipped to the processors are computed from (their edge arrays are
	// never written, only replaced).
	olds := slices.Clone(recs)
	u, v, vFound := &recs[0], (*gstore.Record)(nil), false
	if len(recs) == 2 {
		v, vFound = &recs[1], pres[1].found
	}
	writeU, writeV, err := gstore.Apply(m.Op, lab, u, v, pres[0].found, vFound)
	var ws []write
	if writeU {
		ws = append(ws, write{u, &olds[0], pres[0]})
	}
	if writeV {
		ws = append(ws, write{v, &olds[1], pres[1]})
	}
	if len(ws) > 0 {
		return r.commit(ctx, ws...)
	}
	// Nothing to write — the edge is fully present, or the mutation
	// conflicts — but evict all the same: if the write landed under a
	// router that died before delivering its invalidations, this retry is
	// what restores read-your-writes.
	r.invalidate(keys, make([][]byte, len(keys)))
	return err
}

// internLabel resolves a mutation's label string against the loaded
// graph's label table — the table the loader encoded every record with, so
// ids agree. Routers started without the graph accept only unlabelled
// mutations.
func (r *RouterServer) internLabel(s string) (graph.Label, error) {
	if s == "" {
		return 0, nil
	}
	if r.labels == nil {
		return 0, fmt.Errorf("%w: labelled mutations need the router started with the graph (groutingd -graph)", query.ErrBadQuery)
	}
	return r.labels.Intern(s), nil
}

// preimage is a record's stored bytes as they were before the mutation,
// kept so a partially failed write-all can restore the replicas it
// already touched.
type preimage struct {
	key   uint64
	val   []byte
	found bool
}

// write pairs a rewritten record with its pre-image, decoded and as stored.
type write struct {
	rec *gstore.Record
	old *gstore.Record
	pre preimage
}

// loadRecords reads and decodes the records under keys in one batched round
// — one OpMultiGet per preferred shard, with the read path's replica
// fail-over — returning each one's raw stored bytes alongside as the write
// path's roll-back pre-image. A key nothing is stored under comes back as
// that node's empty Record with found unset.
func (r *RouterServer) loadRecords(ctx context.Context, keys ...uint64) ([]gstore.Record, []preimage, error) {
	recs, pres := make([]gstore.Record, len(keys)), make([]preimage, len(keys))
	var decodeErr error
	err := r.storage.getBatch(ctx, keys, func(i int, val []byte, found bool) {
		pres[i] = preimage{key: keys[i], val: val, found: found}
		recs[i] = gstore.Record{Node: graph.NodeID(keys[i])}
		if !found {
			return
		}
		rec, err := gstore.Decode(recs[i].Node, val)
		if err != nil && decodeErr == nil {
			decodeErr = err
		}
		recs[i] = rec
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return nil, nil, err
	}
	return recs, pres, nil
}

// commit writes the rewritten records to every replica, then queues their
// invalidation for every processor — each record's edits from its pre-image,
// gstore.AppendEdits, for the processors to update their cached copies with.
// Only after both does the mutation ack — no query routed afterwards can be
// served a pre-write cache entry.
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
	edits := make([][]byte, len(ws))
	for i, w := range ws {
		edits[i] = gstore.AppendEdits(nil, w.old, w.rec)
	}
	r.invalidate(keys, edits)
	return nil
}

// rollback restores the pre-images of the given writes on every reachable
// replica, best effort — the mutation is already failing unacked; this pass
// only narrows the divergence window — and evicts the keys: a query may have
// cached the record the failed write left behind for a moment. The records
// that existed go back as one PutBatch, whose every shard takes its frame
// whatever another's answer; the ones that did not are dropped with one
// OpDrop per shard of their placement.
// It runs detached from the request's ctx: an expired or cancelled request
// is the commonest reason to be here, and on that ctx no call would leave.
func (r *RouterServer) rollback(ctx context.Context, ws []write) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rollbackTimeout)
	defer cancel()
	keys := make([]uint64, len(ws))
	var found []uint64
	var vals [][]byte
	drops := make(map[int][]uint64)
	var arr [topology.MaxReplicas]int
	for i, w := range ws {
		keys[i] = w.pre.key
		if w.pre.found {
			found, vals = append(found, w.pre.key), append(vals, w.pre.val)
			continue
		}
		for _, slot := range r.storage.placement(w.pre.key, arr[:0]) {
			drops[slot] = append(drops[slot], w.pre.key)
		}
	}
	_ = r.storage.PutBatch(ctx, found, vals)
	r.storage.dropAt(ctx, drops)
	r.invalidate(keys, make([][]byte, len(keys)))
}

// invalidations is one processor slot's queue of rewritten record keys the
// processor is not yet known to have brought up to date in its cache, each
// with its edits: edits[i] is keys[i]'s gstore.AppendEdits stream, or empty
// for an eviction. Keys are numbered in arrival order — keys[i] has sequence
// number base+i — so a frame's answer can retire exactly what that frame
// carried, whatever order the answers come back in.
type invalidations struct {
	keys      []uint64
	edits     [][]byte
	base      uint64
	delivered int64 // keys retired by an answered frame, for Stats
}

// carried is what one frame takes along of its slot's queue: the keys and
// their edits, and the sequence number just past the last of them.
type carried struct {
	keys  []uint64
	edits [][]byte
	upTo  uint64
}

// carry snapshots the queue for one outgoing frame. The keys and edits alias
// the queue's arrays: appends land past them and retiring only re-slices, so
// the frame's encoder reads them without the lock.
func (q *invalidations) carry() carried {
	return carried{keys: q.keys, edits: q.edits, upTo: q.base + uint64(len(q.keys))}
}

// retire drops the keys numbered below upTo — an OK answer to a frame that
// carried them proves the processor applied them — and is a no-op when an
// earlier answer already did.
func (q *invalidations) retire(upTo uint64) {
	if upTo <= q.base {
		return
	}
	n := upTo - q.base
	q.keys, q.edits, q.base = q.keys[n:], q.edits[n:], upTo
	q.delivered += int64(n)
}

// invalidate queues keys, with their edits (positionally aligned; an empty
// one evicts), for every processor that may still answer queries: anything
// that has not Left — a draining member finishes in-flight work on the old
// view, so its cache matters too. It cannot fail, which is why a mutation can
// ack on it.
func (r *RouterServer) invalidate(keys []uint64, edits [][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for slot, p := range r.pools {
		if p != nil {
			q := &r.inval[slot]
			q.keys, q.edits = append(q.keys, keys...), append(q.edits, edits...)
		}
	}
}

// flushBacklogs is the bounded-backlog carrier: every slot whose queue has
// grown past maxBacklog — nothing was routed to it for that long, or it
// stopped answering — is sent the queue as one explicit OpEvict, and an
// answer retires it. A processor that cannot confirm fails the mutation
// before it has written anything. Caller holds mutMu.
func (r *RouterServer) flushBacklogs(ctx context.Context) error {
	type backlog struct {
		slot int
		pool *Pool
		carried
	}
	var over []backlog
	r.mu.Lock()
	for slot := range r.inval {
		if q := &r.inval[slot]; len(q.keys) > maxBacklog {
			over = append(over, backlog{slot, r.pools[slot], q.carry()})
		}
	}
	r.mu.Unlock()
	for _, b := range over {
		if _, err := b.pool.Call(ctx, &Request{Op: OpEvict, Keys: b.keys}); err != nil {
			return fmt.Errorf("cache eviction: %w", err)
		}
		r.mu.Lock()
		r.inval[b.slot].retire(b.upTo)
		r.mu.Unlock()
	}
	return nil
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
		// not reuse, one OpDrop per slot. Best effort: a shard that misses
		// the drop keeps stale copies (replayed on restart) the pins already
		// hide from every reader.
		if allPushed {
			drops := make(map[int][]uint64)
			for _, d := range copied {
				for _, slot := range d.old {
					if !slices.Contains(d.move.To, slot) {
						drops[slot] = append(drops[slot], d.move.Key)
					}
				}
			}
			r.storage.dropAt(ctx, drops)
		}
	}
	r.heat.Decay()
	return Response{OK: true, Applied: len(copied)}
}
