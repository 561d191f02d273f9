package rpc

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/mquery"
	"repro/internal/query"
	"repro/internal/traverse"
)

// ProcessorServer is one query processor of the processing tier: it
// receives query batches (from the router), executes the h-hop traversals
// against the storage tier, and caches fetched records in a byte-bounded
// LRU. Processors never talk to each other (Section 2.3). Concurrent
// batches share the cache, which carries its own lock; storage fetches ride
// the pooled shard connections with the caller's deadline.
type ProcessorServer struct {
	ln      net.Listener
	ct      connTracker
	storage *StorageClient

	cache *cache.Processor

	invalMu sync.Mutex // serialises the invalidations frames carry
	// applied is the highest Version of a frame whose edits were applied:
	// a frame below it was overtaken by a later one (the router writes from
	// concurrent goroutines, and serveConn runs a socket's frames
	// concurrently), and its edits, applied now, could roll a record back.
	applied uint64

	// execs is the processor's fixed set of executors (traversal scratch +
	// fetch buffers). A request holds one for its whole batch and the next
	// waits its turn, so what a burst of in-flight requests pins — and with
	// it the GC's heap goal and the resident set — does not depend on how
	// many arrived at once.
	execs chan *execState

	registration // announces the processor to a router (scale-out, clean leave)

	requests atomic.Int64
	executed atomic.Int64
}

// ProcessorConfig configures a networked query processor.
type ProcessorConfig struct {
	// Storage lists the storage shards the processor fetches from.
	Storage []string
	// StorageReplicas is the storage tier's replication factor (0 reads as
	// 1, unreplicated). It must match what the loader used, since placement
	// is client-side. With >= 2 the processor's reads fail over
	// transparently when a replica dies and recover it when it answers
	// again.
	StorageReplicas int
	// CacheBytes is the processor's LRU capacity.
	CacheBytes int64
}

// NewProcessorServerWith starts a processor on addr serving in the
// background.
func NewProcessorServerWith(addr string, cfg ProcessorConfig) (*ProcessorServer, error) {
	replicas := cfg.StorageReplicas
	if replicas == 0 {
		replicas = 1
	}
	sc, err := DialStorageReplicated(cfg.Storage, replicas)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		sc.Close()
		return nil, fmt.Errorf("rpc: processor listen: %w", err)
	}
	p := &ProcessorServer{ln: ln, storage: sc, cache: cache.NewProcessor(cfg.CacheBytes)}
	p.execs = make(chan *execState, max(4, 2*runtime.GOMAXPROCS(0)))
	for range cap(p.execs) {
		p.execs <- &execState{fetch: netFetcher{p: p}}
	}
	p.registration = registration{listen: p.Addr()}
	go serve(ln, p.handle, &p.ct)
	return p, nil
}

// Addr returns the processor's listen address.
func (p *ProcessorServer) Addr() string { return p.ln.Addr().String() }

// Close stops the processor, severing live connections.
func (p *ProcessorServer) Close() error {
	p.storage.Close()
	err := p.ln.Close()
	p.ct.closeAll()
	return err
}

// Stats returns the processor's counters, including the full cache
// accounting (hits, misses, evictions, resident bytes).
func (p *ProcessorServer) Stats() Stats {
	cc := p.cache.Stats().Counters()
	return Stats{Role: "processor", Requests: p.requests.Load(), Executed: p.executed.Load(), Cache: &cc}
}

func (p *ProcessorServer) handle(ctx context.Context, req *Request) Response {
	p.requests.Add(1)
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpStats:
		st := p.Stats()
		return Response{OK: true, Stats: &st}
	case OpEvict:
		p.cache.Evict(req.Keys...)
		return Response{OK: true}
	case OpExecute:
		// The invalidations that rode this frame come first — before the
		// request is validated, let alone waits for an executor: whatever the
		// frame's queries read, they read after them, and the reply that
		// retires them at the router is proof they were applied.
		p.invalidate(req)
		if req.Exec == nil || (len(req.Exec.Queries) == 0 && len(req.Exec.Subtasks) == 0) {
			return errorResponse(fmt.Errorf("%w: execute request carries no queries", query.ErrBadQuery))
		}
		ex, err := p.getExec(ctx)
		if err != nil {
			return errorResponse(err)
		}
		defer p.putExec(ex)
		if len(req.Exec.Subtasks) > 0 {
			if len(req.Exec.Queries) > 0 {
				return errorResponse(fmt.Errorf("%w: execute request mixes queries and subtasks", query.ErrBadQuery))
			}
			partials := make([]mquery.Partial, len(req.Exec.Subtasks))
			fetch := mquery.FetchOver(&ex.fetch)
			for i, st := range req.Exec.Subtasks {
				if err := ctx.Err(); err != nil {
					return errorResponse(err)
				}
				ex.fetch.sc.Reset()
				part, _, err := mquery.Run(st, fetch)
				if err != nil {
					return errorResponse(err)
				}
				p.executed.Add(1)
				partials[i] = part
			}
			return Response{OK: true, Partials: partials}
		}
		results := make([]query.Result, len(req.Exec.Queries))
		for i, q := range req.Exec.Queries {
			// A cancelled or expired batch stops at the next query boundary
			// even when every record is a cache hit.
			if err := ctx.Err(); err != nil {
				return errorResponse(err)
			}
			res, err := p.execute(ex, q)
			if err != nil {
				return errorResponse(err)
			}
			p.executed.Add(1)
			results[i] = res
		}
		return Response{OK: true, Results: results}
	}
	return errorResponse(fmt.Errorf("processor: unknown op %q", req.Op))
}

// invalidate applies the invalidations an OpExecute frame carries: Keys,
// each with its edit stream in Values, numbered up to Version. A frame
// numbered at or above every frame applied before has each key's edits
// applied in order (cache.Processor.Apply, updating a resident copy in
// place); one numbered below — overtaken on the way — or one
// without an edit per key evicts its keys instead, which is always safe, and
// is also all a processor does with the lower numbers of a restarted router.
func (p *ProcessorServer) invalidate(req *Request) {
	if len(req.Keys) == 0 {
		return
	}
	p.invalMu.Lock()
	defer p.invalMu.Unlock()
	if req.Version < p.applied || len(req.Values) != len(req.Keys) {
		p.cache.Evict(req.Keys...)
		return
	}
	for i, k := range req.Keys {
		p.cache.Apply(k, req.Values[i])
	}
	p.applied = req.Version
}

// netFetcher is the processor's traverse.Fetcher for one request, and the
// backend of its cache steps: the misses are one StorageClient.readRaw
// under the request's ctx.
type netFetcher struct {
	p       *ProcessorServer
	ctx     context.Context
	sc      cache.Scratch
	keys    []uint64     // readRaw's key buffer
	node    graph.NodeID // while probing, the query node its first read must find
	probing bool
}

func (f *netFetcher) Fetch(ids []graph.NodeID, dir graph.Direction) ([]gstore.FetchResult, error) {
	// Checked on every batch, not only on a miss: an all-hit traversal
	// must still stop when its caller has given up.
	if err := f.ctx.Err(); err != nil {
		return nil, err
	}
	recs, _, err := f.p.cache.Step(&f.sc, f, ids, dir)
	if err == nil && f.probing && ids[0] == f.node {
		f.probing = false
		if !recs[0].OK {
			return nil, unknownNode(f.node)
		}
	}
	return recs, err
}

func unknownNode(id graph.NodeID) error {
	return fmt.Errorf("%w: node %d has no record in the storage tier", query.ErrUnknownNode, id)
}

// Read implements cache.Backend.
func (f *netFetcher) Read(ids []graph.NodeID, dir graph.Direction, dst [][]byte, _ cache.Counts) error {
	var err error
	f.keys, err = f.p.storage.readRaw(f.ctx, ids, dir, dst, f.keys)
	return err
}

// Heat is a no-op: adaptive placement, which reads a miss's heat, runs in
// virtual time only.
func (f *netFetcher) Heat([]graph.NodeID) {}

// Expanded is a no-op: real time bills itself.
func (f *netFetcher) Expanded(int) {}

// execState is what one execute request reuses across its queries and BFS
// levels: the kernel's scratch and the fetcher's buffers. The processor
// owns a fixed set of them, so a steady-state cache-hitting query allocates
// nothing beyond what its frontier outgrows.
type execState struct {
	kernel traverse.Scratch
	fetch  netFetcher
}

// getExec waits for a free executor, or for the request to be given up.
func (p *ProcessorServer) getExec(ctx context.Context) (*execState, error) {
	select {
	case ex := <-p.execs:
		ex.fetch.ctx = ctx
		return ex, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// putExec frees ex for the next request — a fresh one in its place when a
// giant traversal grew its tables, its batches or its edge arena past the
// point where pinning them beats reallocating.
func (p *ProcessorServer) putExec(ex *execState) {
	if ex.kernel.Retained() > 1<<15 || ex.fetch.sc.Retained() > 1<<15 {
		ex = &execState{fetch: netFetcher{p: p}}
	}
	ex.fetch.ctx = nil // an idle executor must not pin the request
	p.execs <- ex
}

// execute validates and runs one point query through the shared kernel, so
// results agree exactly with query.Answer and with the virtual-time
// engine. A query whose Node has no record in the storage tier fails with
// query.ErrUnknownNode, matching the virtual-time client: the kernel's own
// first read of the node checks it, so the cache sees exactly the reads the
// virtual-time engine makes, and a kernel that reads nothing leaves the
// cache alone.
func (p *ProcessorServer) execute(ex *execState, q query.Query) (query.Result, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	// Label filtering needs the graph's label table, which only the
	// storage-side loader has; the networked processor serves unfiltered
	// aggregation.
	if q.Type == query.NeighborAgg && q.CountLabel != "" {
		return query.Result{}, fmt.Errorf("%w: label-filtered aggregation is not supported over rpc", query.ErrBadQuery)
	}
	f := &ex.fetch
	f.sc.Reset()
	f.node, f.probing = q.Node, true
	res, err := ex.kernel.Run(f, q, traverse.LabelFilter{})
	if err == nil && f.probing && !p.cache.Contains(q.Node) {
		var found bool // the kernel read nothing: one read the cache does not keep
		if _, found, err = p.storage.Get(f.ctx, uint64(q.Node)); err == nil && !found {
			err = unknownNode(q.Node)
		}
	}
	f.probing = false
	return res, err
}
