package rpc

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/query"
	"repro/internal/topology"
)

// The router is the networked deployment's single writer: OpMutate
// serialises on mutMu, so every record rewrite is a clean read-modify-write
// against the storage tier. A mutation is two storage round trips: the
// pre-images of its records come back in one batched read, and the rewrites
// land on every replica of each key's placement as one PutBatch. A write
// that cannot reach every replica fails without acking; since every mutation
// is idempotent, the client retries it safely. A key's placement is
// kvstore.Place's on every process, so the router's writes and the
// processors' reads agree on it without a table to share.
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

// rollbackTimeout bounds the restore of an unacked mutation's pre-images,
// which runs detached from the request whose context may be what failed it.
const rollbackTimeout = 2 * time.Second

// maxBacklog is how many invalidations may wait on one processor slot before
// a mutation stops to deliver them itself. Any routed traffic keeps a queue
// far below it: under hash routing at the benchmark's 1,250 op/s every
// processor is handed a frame within a few milliseconds, a handful of keys.
const maxBacklog = 256

// mutate applies a batch of mutations in order, each with gstore.Mutate over
// routerEnv, stopping at the first failure. Response.Applied counts the
// applied prefix, which stays applied — the same contract as the
// virtual-time Session.Mutate.
func (r *RouterServer) mutate(ctx context.Context, muts []query.Mutation) Response {
	if len(muts) == 0 {
		return errorResponse(fmt.Errorf("%w: mutate request carries no mutations", query.ErrBadQuery))
	}
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	for i := range muts {
		if _, err := gstore.Mutate(routerEnv{r: r, ctx: ctx}, &muts[i]); err != nil {
			resp := errorResponse(err)
			resp.Applied = i
			return resp
		}
		r.mutations.Add(1)
	}
	return Response{OK: true, Applied: len(muts)}
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
func (r *RouterServer) rollback(ctx context.Context, ws []gstore.Write) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rollbackTimeout)
	defer cancel()
	keys := make([]uint64, len(ws))
	var found []uint64
	var vals [][]byte
	drops := make(map[int][]uint64)
	var arr [topology.MaxReplicas]int
	for i, w := range ws {
		keys[i] = uint64(w.Node)
		if w.Pre != nil {
			found, vals = append(found, keys[i]), append(vals, w.Pre)
			continue
		}
		for _, slot := range r.storage.placement(keys[i], arr[:0]) {
			drops[slot] = append(drops[slot], keys[i])
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

// routerEnv adapts the router to gstore.Mutate's Env.
type routerEnv struct {
	r   *RouterServer
	ctx context.Context
}

// Labels is the loaded graph's label table, the one the loader encoded the
// records with. Routers started without the graph take only unlabelled
// mutations.
func (e routerEnv) Labels() (*graph.Labels, error) {
	if e.r.labels == nil {
		return nil, fmt.Errorf("%w: labelled mutations need the router started with the graph (groutingd -graph)", query.ErrBadQuery)
	}
	return e.r.labels, nil
}

// Read delivers the backlogs past maxBacklog first, so a processor that
// cannot confirm fails the mutation before it writes anything, then reads
// the pre-images in one round with the read path's replica fail-over.
func (e routerEnv) Read(ids []graph.NodeID, dst [][]byte) error {
	if err := e.r.flushBacklogs(e.ctx); err != nil {
		return err
	}
	_, err := e.r.storage.readRaw(e.ctx, ids, graph.Both, dst, nil)
	return err
}

// Commit writes the records to every replica as one PutBatch — one frame
// and one WAL write per shard — then queues each one's edits for every
// processor; only after both does the mutation ack, so no query routed
// afterwards is served a pre-write cache entry. A write-all that fails on
// any shard is rolled back, so an unacked mutation leaves the tier as it
// found it rather than with divergent replicas, which a retry's
// read-modify-write, reading one replica, might never heal. The roll-back
// is best effort: a replica that dies inside the window keeps a stale copy
// until the next mutation rewrites the record.
//
// With nothing to write — the edge is fully present, or the mutation
// conflicts — the touched keys are evicted all the same: if the write
// landed under a router that died before delivering its invalidations,
// this retry is what restores read-your-writes.
func (e routerEnv) Commit(ws []gstore.Write, touched []graph.NodeID) error {
	if len(ws) == 0 {
		keys := make([]uint64, len(touched))
		for i, id := range touched {
			keys[i] = uint64(id)
		}
		e.r.invalidate(keys, make([][]byte, len(keys)))
		return nil
	}
	keys, vals, edits := make([]uint64, len(ws)), make([][]byte, len(ws)), make([][]byte, len(ws))
	for i, w := range ws {
		keys[i], vals[i], edits[i] = uint64(w.Node), w.Val, w.Edits
	}
	if err := e.r.storage.PutBatch(e.ctx, keys, vals); err != nil {
		e.r.rollback(e.ctx, ws)
		return err
	}
	e.r.invalidate(keys, edits)
	return nil
}
