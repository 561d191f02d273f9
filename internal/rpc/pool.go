package rpc

import (
	"context"
	"sync"

	"repro/internal/query"
)

// Pool is the one pipelined connection to a daemon. Any number of calls may
// be in flight on it, so a slow or cancelled call neither occupies the
// connection nor poisons it. It is dialled on the first call and redialled
// on the first call after a transport failure broke it.
type Pool struct {
	addr string

	mu     sync.Mutex
	cn     *Conn
	closed bool
}

// NewPool creates the pool for addr. No connection is made until the first
// call. size is ignored: one connection carries every call, and a tag is
// freed when its reply is read, so tags stay as short as the calls in
// flight, however many calls the connection has carried.
func NewPool(addr string, size int) *Pool {
	return &Pool{addr: addr}
}

// Addr returns the remote address.
func (p *Pool) Addr() string { return p.addr }

// Call performs one request over the pool's connection.
func (p *Pool) Call(ctx context.Context, req *Request) (Response, error) {
	var resp Response
	err := p.CallInto(ctx, req, &resp)
	return resp, err
}

// CallInto is Call decoding into a caller-owned Response, reusing its
// slice capacity (see Conn.CallInto).
func (p *Pool) CallInto(ctx context.Context, req *Request, resp *Response) error {
	cn, err := p.conn(ctx)
	if err != nil {
		return err
	}
	return cn.CallInto(ctx, req, resp)
}

// Ping checks the remote daemon is reachable and speaking the protocol.
func (p *Pool) Ping(ctx context.Context) error {
	_, err := p.Call(ctx, &Request{Op: OpPing})
	return err
}

// conn returns the live connection, dialling one when there is none or the
// last one broke. The dial holds no lock; when callers race to dial, the
// first to finish wins and the others close theirs.
func (p *Pool) conn(ctx context.Context) (*Conn, error) {
	p.mu.Lock()
	closed, cn := p.closed, p.cn
	p.mu.Unlock()
	if closed {
		return nil, p.errClosed()
	}
	if cn != nil && !cn.Broken() {
		return cn, nil
	}

	cn, err := DialContext(ctx, p.addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	old := p.cn
	switch {
	case p.closed:
		p.mu.Unlock()
		cn.Close()
		return nil, p.errClosed()
	case old != nil && !old.Broken():
		p.mu.Unlock()
		cn.Close()
		return old, nil
	}
	p.cn = cn
	p.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return cn, nil
}

func (p *Pool) errClosed() error {
	return &remoteError{addr: p.addr, msg: "pool closed", kind: query.ErrUnavailable}
}

// Close closes the connection and rejects future calls; calls in flight
// fail with query.ErrUnavailable.
func (p *Pool) Close() {
	p.mu.Lock()
	cn := p.cn
	p.cn = nil
	p.closed = true
	p.mu.Unlock()
	if cn != nil {
		cn.Close()
	}
}
