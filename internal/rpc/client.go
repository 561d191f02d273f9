package rpc

import (
	"context"
	"sync"

	"repro/internal/metrics"
	"repro/internal/query"
)

// RouterClient is a gRouting client talking to a router daemon over one
// pipelined connection, so concurrent and pipelined submissions proceed in
// parallel.
type RouterClient struct {
	pool *Pool
}

// DialRouter connects a client to the router and verifies it responds.
func DialRouter(ctx context.Context, addr string) (*RouterClient, error) {
	p := NewPool(addr, 0)
	if err := p.Ping(ctx); err != nil {
		p.Close()
		return nil, err
	}
	return &RouterClient{pool: p}, nil
}

// clientCall recycles the single-query Execute envelopes. Recycling the
// Response (and its Results backing array) is safe because each decoded
// Result's internal slices are freshly allocated, and an abandoned call's
// tag is dropped from the demux before CallInto returns — nothing writes
// into resp after the call completes.
type clientCall struct {
	req  Request
	ex   ExecRequest
	qs   [1]query.Query
	resp Response
}

var clientCallPool = sync.Pool{New: func() any { return new(clientCall) }}

// Execute runs one query through the deployment.
func (c *RouterClient) Execute(ctx context.Context, q query.Query) (query.Result, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	cc := clientCallPool.Get().(*clientCall)
	defer clientCallPool.Put(cc)
	cc.qs[0] = q
	cc.ex = ExecRequest{Queries: cc.qs[:1]}
	cc.req = Request{Op: OpExecute, Exec: &cc.ex}
	if err := c.pool.CallInto(ctx, &cc.req, &cc.resp); err != nil {
		return query.Result{}, err
	}
	if err := checkResults(c.pool.Addr(), &cc.resp, 1, 0); err != nil {
		return query.Result{}, err
	}
	return cc.resp.Results[0], nil
}

// ExecuteBatch runs a batch of queries in one round trip to the router,
// which fans the sub-batches out to the processors in parallel. Results
// align positionally with qs; one failing query fails the batch.
func (c *RouterClient) ExecuteBatch(ctx context.Context, qs []query.Query) ([]query.Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	resp, err := c.pool.Call(ctx, execRequest(qs))
	if err != nil {
		return nil, err
	}
	if err := checkResults(c.pool.Addr(), &resp, len(qs), 0); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Mutate applies a batch of graph mutations through the router in one
// round trip. It returns how many were applied: the applied prefix stays
// applied on failure (each mutation acks individually), and every mutation
// is idempotent, so retrying a failed batch from the reported index is
// always safe.
func (c *RouterClient) Mutate(ctx context.Context, muts []query.Mutation) (int, error) {
	if len(muts) == 0 {
		return 0, nil
	}
	resp, err := c.pool.Call(ctx, &Request{Op: OpMutate, Muts: muts})
	return resp.Applied, err
}

// Stats fetches the deployment's observability snapshot from the router
// in one OpStats round trip.
func (c *RouterClient) Stats(ctx context.Context) (*metrics.Snapshot, error) {
	resp, err := c.pool.Call(ctx, &Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil || resp.Stats.Snapshot == nil {
		return nil, &remoteError{addr: c.pool.Addr(), msg: "stats response carries no snapshot", kind: query.ErrUnavailable}
	}
	return resp.Stats.Snapshot, nil
}

// Close disconnects the client.
func (c *RouterClient) Close() error {
	c.pool.Close()
	return nil
}
