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

	cn, err := Dial(addr)
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

// TestPoolSurvivesCancelledCall is the same property one layer up: with a
// single-connection pool, a cancelled call must not force a redial — the
// next call multiplexes onto the same healthy socket.
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
	if len(p.conns) != 1 {
		p.mu.Unlock()
		t.Fatalf("pool has %d conns, want 1", len(p.conns))
	}
	before := p.conns[0]
	p.mu.Unlock()

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
	same := len(p.conns) == 1 && p.conns[0] == before
	p.mu.Unlock()
	if !same {
		t.Fatal("pool replaced the connection after a cancelled call")
	}
}
