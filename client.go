package grouting

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/query"
)

// Typed errors shared by every Client implementation. Both transports
// classify failures into these sentinels (the networked deployment carries
// them across the wire as codes), so downstream code can errors.Is against
// them regardless of where execution landed.
var (
	// ErrBadQuery marks a query rejected by Query.Validate before any
	// execution happened.
	ErrBadQuery = query.ErrBadQuery
	// ErrUnknownNode marks a query whose Node is not in the system (never
	// added, or removed).
	ErrUnknownNode = query.ErrUnknownNode
	// ErrUnavailable marks a transport failure: the client is closed, a
	// daemon is unreachable, or a connection broke mid-call.
	ErrUnavailable = query.ErrUnavailable
	// ErrConflict marks a mutation the graph's current state rejects:
	// removing an edge that does not exist, or adding an edge whose
	// endpoint was never created. The graph is unchanged.
	ErrConflict = query.ErrConflict
)

// MutOp enumerates the online graph mutations.
type MutOp = query.MutOp

// Mutation operations.
const (
	// MutUpsertNode creates Node with Label, or relabels it. Idempotent.
	MutUpsertNode = query.MutUpsertNode
	// MutAddEdge ensures the edge Node->To with Label exists (no duplicate
	// parallel edge is ever created); a missing endpoint is ErrConflict.
	MutAddEdge = query.MutAddEdge
	// MutRemoveEdge removes the edge Node->To (any label: the
	// lowest-labelled edge when several connect u to v); an absent edge is
	// ErrConflict.
	MutRemoveEdge = query.MutRemoveEdge
)

// Mutation is one online graph write, the same value on both transports and
// in the oracle: labels travel as strings (the engine interns them), exactly
// like Query.CountLabel. Node is the subject (the upserted node, or an edge's
// source); To is the edge destination; Label is the node label for
// MutUpsertNode and the edge label for MutAddEdge (ignored by MutRemoveEdge).
// Mutation.Apply makes the same edit on an in-memory Graph.
type Mutation = query.Mutation

// Client is the transport-agnostic query interface: the same client code
// runs against the in-process virtual-time engine (NewLocalClient) and a
// real networked deployment (Dial), with identical results, the same typed
// errors, and context cancellation/deadlines honoured by both.
type Client interface {
	// Execute runs one query and returns its result.
	Execute(ctx context.Context, q Query) (Result, error)
	// ExecuteBatch runs a batch of queries, returning results positionally
	// aligned with qs. Over the network the whole batch travels in one
	// round trip and fans out across processors in parallel. One failing
	// query fails the batch.
	ExecuteBatch(ctx context.Context, qs []Query) ([]Result, error)
	// ExecuteStream pipelines queries: it consumes in until the channel
	// closes or ctx is cancelled, and delivers one Outcome per executed
	// query on the returned channel, which is closed when the stream
	// drains. Outcomes may arrive out of submission order on transports
	// that execute concurrently; match them through Outcome.Query.
	ExecuteStream(ctx context.Context, in <-chan Query) <-chan Outcome
	// UpsertNode ensures node id exists carrying label (creating or
	// relabelling it). Idempotent; acked writes are replicated to every
	// storage replica and durable when the tier runs with a WAL.
	UpsertNode(ctx context.Context, id NodeID, label string) error
	// AddEdge ensures the directed edge u->v with label exists. Adding an
	// edge that is already present succeeds without duplicating it; a
	// missing endpoint fails with ErrConflict.
	AddEdge(ctx context.Context, u, v NodeID, label string) error
	// RemoveEdge removes the directed edge u->v (any label: the
	// lowest-labelled edge when several connect u to v). Removing an edge
	// that does not exist fails with ErrConflict.
	RemoveEdge(ctx context.Context, u, v NodeID) error
	// Mutate applies a batch of mutations in order, stopping at the first
	// failure. It returns how many were applied — the applied prefix
	// stays applied (each mutation acks individually), so a conflict
	// mid-batch does not roll back the writes before it. Both transports
	// guarantee read-your-writes: a query issued through this client — or
	// any client of the same router — after Mutate returns observes the
	// mutation. (Over TCP the processors' caches learn of a write from the
	// next query the router sends them, not at the ack: a tool that asks a
	// processor directly, around the router, may still be served the
	// pre-write record.)
	Mutate(ctx context.Context, muts []Mutation) (int, error)
	// Stats returns a snapshot of the system's runtime counters:
	// per-processor assigned/executed/stolen/diverted counts, cache
	// hit/miss/eviction counters, and routing-decision-time / queue-depth
	// percentiles. Both transports report the identical structure (the
	// networked client fetches it from the router in one round trip).
	Stats(ctx context.Context) (Stats, error)
	// Close releases the client. Calls after Close fail with
	// ErrUnavailable.
	Close() error
}

// Outcome pairs a streamed query with its result or error.
type Outcome struct {
	Query  Query
	Result Result
	Err    error
}

// writes is the Client write sugar both transports embed: each call is a
// one-mutation batch through the client's own Mutate.
type writes struct {
	mutate func(context.Context, []Mutation) (int, error)
}

func (w writes) UpsertNode(ctx context.Context, id NodeID, label string) error {
	return w.one(ctx, Mutation{Op: MutUpsertNode, Node: id, Label: label})
}

func (w writes) AddEdge(ctx context.Context, u, v NodeID, label string) error {
	return w.one(ctx, Mutation{Op: MutAddEdge, Node: u, To: v, Label: label})
}

func (w writes) RemoveEdge(ctx context.Context, u, v NodeID) error {
	return w.one(ctx, Mutation{Op: MutRemoveEdge, Node: u, To: v})
}

func (w writes) one(ctx context.Context, m Mutation) error {
	_, err := w.mutate(ctx, []Mutation{m})
	return err
}

// stream is the shared ExecuteStream engine: workers goroutines consume in
// and emit outcomes until the input drains or ctx is cancelled.
func stream(ctx context.Context, in <-chan Query, workers int, exec func(context.Context, Query) (Result, error)) <-chan Outcome {
	out := make(chan Outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case q, ok := <-in:
					if !ok {
						return
					}
					res, err := exec(ctx, q)
					select {
					case out <- Outcome{Query: q, Result: res, Err: err}:
					case <-ctx.Done():
						return
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// NewLocalClient returns a Client over the in-process virtual-time system:
// a fresh session (cold caches) whose processor caches persist across the
// client's lifetime. It is safe for concurrent use; queries execute one at
// a time on the session's virtual clock.
func NewLocalClient(sys *System) (Client, error) {
	ses, err := sys.NewSession()
	if err != nil {
		return nil, err
	}
	c := &localClient{sys: sys, ses: ses}
	c.writes = writes{c.Mutate}
	return c, nil
}

type localClient struct {
	writes
	mu     sync.Mutex
	sys    *System
	ses    *Session
	closed bool
}

func (c *localClient) exec(ctx context.Context, q Query) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Result{}, fmt.Errorf("%w: client closed", ErrUnavailable)
	}
	if err := c.sys.Known(q.AnchorNodes()...); err != nil {
		return Result{}, err
	}
	res, _, err := c.ses.Execute(q)
	return res, err
}

func (c *localClient) Execute(ctx context.Context, q Query) (Result, error) {
	return c.exec(ctx, q)
}

func (c *localClient) ExecuteBatch(ctx context.Context, qs []Query) ([]Result, error) {
	results := make([]Result, len(qs))
	for i, q := range qs {
		res, err := c.exec(ctx, q)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

func (c *localClient) ExecuteStream(ctx context.Context, in <-chan Query) <-chan Outcome {
	// One worker: the virtual clock serialises execution anyway.
	return stream(ctx, in, 1, c.exec)
}

func (c *localClient) Mutate(ctx context.Context, muts []Mutation) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, fmt.Errorf("%w: client closed", ErrUnavailable)
	}
	return c.ses.Mutate(muts...)
}

func (c *localClient) Stats(ctx context.Context) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Stats{}, fmt.Errorf("%w: client closed", ErrUnavailable)
	}
	return *c.ses.Snapshot(), nil
}

func (c *localClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}
