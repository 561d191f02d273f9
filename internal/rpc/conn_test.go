package rpc

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// startBlockingServer serves a handler where OpMultiGet parks until release is
// closed (or the per-request context ends) and every other op answers
// immediately — a stand-in for one slow query sharing a pipelined
// connection with fast ones.
func startBlockingServer(t *testing.T, release <-chan struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go serve(ln, func(ctx context.Context, req *Request) Response {
		if req.Op == OpMultiGet {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return Response{OK: true, Values: [][]byte{[]byte("slow")}, Founds: []bool{true}}
		}
		return Response{OK: true}
	}, nil)
	return ln.Addr().String()
}

// TestCancelledCallDoesNotPoisonConn is the mid-stream cancellation
// regression test: cancelling one pipelined call abandons only that call's
// stream tag. The shared connection stays healthy for the calls already in
// flight and for new ones — under the old checkout pool a cancelled call
// tore down the whole socket.
func TestCancelledCallDoesNotPoisonConn(t *testing.T) {
	release := make(chan struct{})
	addr := startBlockingServer(t, release)

	cn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	// Park a slow call, then cancel it mid-stream while fast calls hammer
	// the same connection from other goroutines.
	ctx, cancel := context.WithCancel(context.Background())
	slowErr := make(chan error, 1)
	go func() {
		_, err := cn.Call(ctx, &Request{Op: OpMultiGet, Keys: []uint64{42}})
		slowErr <- err
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := cn.Call(context.Background(), &Request{Op: OpPing}); err != nil {
					t.Errorf("concurrent ping during cancellation: %v", err)
					return
				}
			}
		}()
	}

	time.Sleep(10 * time.Millisecond) // let the slow call get on the wire
	cancel()
	if err := <-slowErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: err = %v, want context.Canceled", err)
	}
	wg.Wait()

	if cn.Broken() {
		t.Fatal("connection marked broken after a cancelled call")
	}
	// The server eventually answers the abandoned tag; the demux must
	// discard that orphan response, not crash or misdeliver it.
	close(release)
	for i := 0; i < 20; i++ {
		if _, err := cn.Call(context.Background(), &Request{Op: OpPing}); err != nil {
			t.Fatalf("ping after orphan response: %v", err)
		}
	}
	if cn.Broken() {
		t.Fatal("connection marked broken after orphan response drained")
	}
}

// TestPoolSurvivesCancelledCall is the same property one layer up: a
// cancelled call must not force a redial — the next call multiplexes onto
// the same healthy socket.
func TestPoolSurvivesCancelledCall(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	addr := startBlockingServer(t, release)

	p := NewPool(addr, 1)
	defer p.Close()

	if err := p.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	before := p.cn
	p.mu.Unlock()
	if before == nil {
		t.Fatal("pool holds no connection after a call")
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Call(ctx, &Request{Op: OpMultiGet, Keys: []uint64{7}})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pooled call: err = %v, want context.Canceled", err)
	}

	if err := p.Ping(context.Background()); err != nil {
		t.Fatalf("ping after cancellation: %v", err)
	}
	p.mu.Lock()
	same := p.cn == before
	p.mu.Unlock()
	if !same {
		t.Fatal("pool replaced the connection after a cancelled call")
	}
}

// TestPoolHoldsOneConn makes serial calls, then concurrent ones, on one Pool:
// the server must see exactly one connection, whatever size the pool was
// asked for. A caller that makes one call at a time must not grow it.
func TestPoolHoldsOneConn(t *testing.T) {
	const n = 16
	ct := &connTracker{}
	p := NewPool(startEchoServer(t, readPaths[0].wrap, ct), 4)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), stall)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := p.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Ping(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	ct.mu.Lock()
	conns := len(ct.conns)
	ct.mu.Unlock()
	if conns != 1 {
		t.Fatalf("the server holds %d connections after %d serial and %d concurrent calls on one pool, want 1", conns, n, n)
	}
}

// TestPoolRedialsAfterBreak severs the pool's connection from the server
// side: the next call dials a fresh one instead of failing on the broken one.
func TestPoolRedialsAfterBreak(t *testing.T) {
	ct := &connTracker{}
	p := NewPool(startEchoServer(t, readPaths[0].wrap, ct), 0)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), stall)
	defer cancel()
	if err := p.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	before := p.cn
	p.mu.Unlock()
	ct.mu.Lock()
	for c := range ct.conns {
		c.Close()
	}
	ct.mu.Unlock()
	select {
	case <-before.done: // the demux saw the break
	case <-ctx.Done():
		t.Fatal("the client never saw its connection close")
	}
	if err := p.Ping(ctx); err != nil {
		t.Fatalf("ping after the connection broke: %v", err)
	}
	p.mu.Lock()
	after := p.cn
	p.mu.Unlock()
	if after == before || after.Broken() {
		t.Fatal("the pool did not replace its broken connection")
	}
}

// tagServer is a fake daemon that shows the test the tag of every request
// it reads, as peelTag reads it off the frame. It answers OpPing itself and
// leaves every other request unanswered until the test sends its reply.
type tagServer struct {
	tags chan uint64
	wmu  sync.Mutex
	c    net.Conn
}

// startTagServer starts a tagServer and connects a Conn to it.
func startTagServer(t *testing.T) (*tagServer, *Conn) {
	t.Helper()
	a, b := tcpPair(t)
	s := &tagServer{tags: make(chan uint64, 1), c: b}
	go readFrames(b, func(payload []byte) bool {
		tag, rest, ok := peelTag(payload)
		var req Request
		if !ok || decodeRequestInto(rest, &req) != nil {
			return false
		}
		s.tags <- tag
		if req.Op == OpPing {
			s.reply(tag, Response{OK: true})
		}
		return true
	}, nil)
	cn := newConn(a, "tag-server")
	t.Cleanup(func() { cn.Close(); b.Close() })
	return s, cn
}

// reply writes the response to tag.
func (s *tagServer) reply(tag uint64, resp Response) {
	var scratch []byte
	buf := encodeResponseFrame(nil, tag, &resp, &scratch)
	s.wmu.Lock()
	s.c.Write(buf)
	s.wmu.Unlock()
}

// next is the tag of the next request the server read.
func (s *tagServer) next(t *testing.T) uint64 {
	t.Helper()
	select {
	case tag := <-s.tags:
		return tag
	case <-time.After(stall):
		t.Fatal("no request reached the server")
		return 0
	}
}

// TestTagFreedOnReply pins a tag's lifetime: it is issued to one call and
// freed when the demux reads its reply, never when a caller gives up.
// Sequential calls on an idle connection all carry tag 1, a one-byte
// uvarint however many calls the connection carries. The tag of a call
// abandoned while its reply is held back is not reissued until that reply
// arrives, and the late reply is discarded: it never reaches the call made
// after the abandonment, which gets its own reply.
func TestTagFreedOnReply(t *testing.T) {
	s, cn := startTagServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), stall)
	defer cancel()
	for i := 0; i < 200; i++ {
		if err := cn.CallInto(ctx, &Request{Op: OpPing}, &Response{}); err != nil {
			t.Fatal(err)
		}
		if tag := s.next(t); tag != 1 {
			t.Fatalf("sequential call %d carried tag %d, want 1", i, tag)
		}
	}

	type result struct {
		resp Response
		err  error
	}
	call := func(ctx context.Context, key uint64) chan result {
		ch := make(chan result, 1)
		go func() {
			resp, err := cn.Call(ctx, &Request{Op: OpMultiGet, Keys: []uint64{key}})
			ch <- result{resp, err}
		}()
		return ch
	}
	actx, abandon := context.WithCancel(ctx)
	a := call(actx, 1)
	ta := s.next(t)
	abandon()
	if r := <-a; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("abandoned call: err = %v, want context.Canceled", r.err)
	}
	b := call(ctx, 2)
	tb := s.next(t)
	if tb == ta {
		t.Fatalf("tag %d reissued while the abandoned call's reply is still owed", ta)
	}

	// The stream delivers A's late reply first: B must not take it.
	s.reply(ta, Response{OK: true, Values: [][]byte{[]byte("A")}, Founds: []bool{true}})
	s.reply(tb, Response{OK: true, Values: [][]byte{[]byte("B")}, Founds: []bool{true}})
	if r := <-b; r.err != nil || string(echoed(&r.resp)) != "B" {
		t.Fatalf("the later call got %q, %v; want its own reply %q", echoed(&r.resp), r.err, "B")
	}

	// Both replies are read, so both tags are free again, and the calls that
	// follow reuse them.
	for i := 0; i < 3; i++ {
		if err := cn.CallInto(ctx, &Request{Op: OpPing}, &Response{}); err != nil {
			t.Fatal(err)
		}
		if tag := s.next(t); tag != ta && tag != tb {
			t.Fatalf("call after both replies carried tag %d, want a freed one (%d or %d)", tag, ta, tb)
		}
	}
	if cn.Broken() {
		t.Fatal("connection broken by a late reply")
	}
}
