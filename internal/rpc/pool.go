package rpc

import (
	"context"
	"sync"

	"repro/internal/query"
)

// DefaultPoolSize bounds the pipelined connections kept per remote daemon.
// With multiplexed framing one socket carries many in-flight calls, so a
// handful of sockets is about spreading bytes across TCP streams (and write
// locks), not about call concurrency — unlike the old checkout pool, whose
// size capped the number of concurrent calls. It is also about tag bytes:
// a frame's tag is its connection's call counter as a uvarint, and one
// connection's counter passes 2^14 (a third tag byte) four times sooner than
// each of four. Measured on the point_hot benchmark (three seeds), a pool of
// one read 1–3 MiB less RSS but 2.2 % more bytes per query — most likely the
// longer tag on both legs of most frames.
const DefaultPoolSize = 4

// Pool maintains up to size pipelined connections to one daemon and
// multiplexes calls across them round-robin. Calls never check a
// connection out: any number may be in flight on each connection, so a
// slow or cancelled call neither occupies a pool slot nor poisons a shared
// socket. Connections broken by a transport failure are pruned and
// replaced lazily.
type Pool struct {
	addr string
	size int

	mu      sync.Mutex
	conns   []*Conn
	next    int
	dialing int
	closed  bool
}

// NewPool creates a pool of at most size connections to addr (size <= 0
// means DefaultPoolSize). No connection is made until the first call.
func NewPool(addr string, size int) *Pool {
	if size <= 0 {
		size = DefaultPoolSize
	}
	return &Pool{addr: addr, size: size}
}

// Addr returns the remote address.
func (p *Pool) Addr() string { return p.addr }

// Call performs one request over a pooled connection.
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

// conn picks a live connection round-robin, pruning broken ones and
// dialing a replacement when the pool is not yet full. At most one caller
// dials at a time; everyone else multiplexes onto what exists.
func (p *Pool) conn(ctx context.Context) (*Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, &remoteError{addr: p.addr, msg: "pool closed", kind: query.ErrUnavailable}
	}
	live := p.conns[:0]
	for _, cn := range p.conns {
		if cn.Broken() {
			cn.Close()
			continue
		}
		live = append(live, cn)
	}
	p.conns = live
	if len(p.conns) > 0 && (len(p.conns)+p.dialing >= p.size || p.dialing > 0) {
		cn := p.conns[p.next%len(p.conns)]
		p.next++
		p.mu.Unlock()
		return cn, nil
	}
	p.dialing++
	p.mu.Unlock()

	cn, err := DialContext(ctx, p.addr)

	p.mu.Lock()
	p.dialing--
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	if p.closed {
		p.mu.Unlock()
		cn.Close()
		return nil, &remoteError{addr: p.addr, msg: "pool closed", kind: query.ErrUnavailable}
	}
	if len(p.conns) < p.size {
		p.conns = append(p.conns, cn)
		p.mu.Unlock()
		return cn, nil
	}
	// Concurrent dialers filled the pool first: adopt one of theirs so the
	// extra connection (and its demux goroutine) doesn't leak untracked.
	alt := p.conns[p.next%len(p.conns)]
	p.next++
	p.mu.Unlock()
	cn.Close()
	return alt, nil
}

// Close closes every connection and rejects future calls; calls in flight
// fail with query.ErrUnavailable.
func (p *Pool) Close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.closed = true
	p.mu.Unlock()
	for _, cn := range conns {
		cn.Close()
	}
}
