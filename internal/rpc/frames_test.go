package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
)

// plainConn hides everything but the net.Conn methods — SyscallConn above
// all — so readFrames takes the buffered path on a platform that has the
// raw one.
type plainConn struct{ net.Conn }

// readPaths names the two ways a conn is read; every reader test runs on
// both, so the fallback is executed, not just compiled.
var readPaths = []struct {
	name string
	wrap func(net.Conn) net.Conn
}{
	{"raw", func(c net.Conn) net.Conn { return c }},
	{"buffered", func(c net.Conn) net.Conn { return plainConn{c} }},
}

// wrapListener hands out accepted conns through wrap.
type wrapListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l wrapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (a, b net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// rawFrame is one wire frame around payload.
func rawFrame(payload []byte) []byte {
	return finishFrame(append(beginFrame(nil), payload...))
}

// patterned returns n bytes that differ per seed, so a frame delivered out
// of order or from the wrong offset cannot compare equal.
func patterned(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*31 + i)
	}
	return b
}

// frameStream is readFrames running over one conn in its own goroutine:
// each payload is copied out of the window onto frames, and end yields
// what readFrames returned.
type frameStream struct {
	frames chan []byte
	end    chan error
}

func streamFrames(c net.Conn, owed func() bool) frameStream {
	fs := frameStream{frames: make(chan []byte, 256), end: make(chan error, 1)}
	go func() {
		fs.end <- readFrames(c, func(p []byte) bool {
			fs.frames <- append([]byte(nil), p...)
			return true
		}, owed)
	}()
	return fs
}

// stall bounds every wait on a reader: past it, the reader is parked on
// bytes (or a close) it was owed a wake-up for.
const stall = 20 * time.Second

func (fs frameStream) next(t *testing.T) []byte {
	t.Helper()
	select {
	case p := <-fs.frames:
		return p
	case err := <-fs.end:
		// The reader queues a frame before it reports the end: a frame
		// that raced the end into this select is still there.
		select {
		case p := <-fs.frames:
			fs.end <- err
			return p
		default:
			t.Fatalf("stream ended early: %v", err)
		}
	case <-time.After(stall):
		t.Fatal("reader stalled with a frame on the wire")
	}
	return nil
}

func (fs frameStream) wait(t *testing.T) error {
	t.Helper()
	select {
	case err := <-fs.end:
		return err
	case <-time.After(stall):
		t.Fatal("reader stalled on a closed stream")
	}
	return nil
}

// TestReadFramesStreams feeds the reader byte streams cut in the ways a
// socket cuts them and checks the frames come out whole, in order, with
// the stream's end reported the way readFrame reports it.
func TestReadFramesStreams(t *testing.T) {
	small := rawFrame(patterned(1, 37))

	var burst []byte
	var burstWant [][]byte
	for i := 0; i < 64; i++ {
		p := patterned(i, 1+i*3)
		burst = append(burst, rawFrame(p)...)
		burstWant = append(burstWant, p)
	}

	// Exactly one window of frames, then one more: the read that fills the
	// window cannot tell whether the queue is drained and must ask again.
	var full []byte
	var fullWant [][]byte
	for i := 0; i < frameWindow/1024; i++ {
		p := patterned(i, 1024-frameHeader)
		full = append(full, rawFrame(p)...)
		fullWant = append(fullWant, p)
	}
	if len(full) != frameWindow {
		t.Fatalf("window-filling stream is %d bytes, want %d", len(full), frameWindow)
	}
	tail := patterned(99, 11)
	fullWant = append(fullWant, tail)

	// A frame past the window between small ones, with the next frame's
	// header riding in the same writes.
	big := patterned(7, 3*frameWindow+123)
	mixed := append(append(append([]byte(nil), small...), rawFrame(big)...), small...)
	mixedWant := [][]byte{patterned(1, 37), big, patterned(1, 37)}

	var tooBig [frameHeader]byte
	binary.LittleEndian.PutUint32(tooBig[:], maxFrame+1)

	type streamCase struct {
		name string
		// writes go out one Write each; a pause between them gives the
		// reader time to see the cut (the result may not depend on it).
		writes  [][]byte
		preload bool // finish writing before the reader starts
		want    [][]byte
		wantErr error
	}
	cases := []streamCase{
		{name: "byte at a time", writes: splitEvery(small, 1), want: [][]byte{patterned(1, 37)}, wantErr: io.EOF},
		{name: "64 frames in one write", writes: [][]byte{burst}, want: burstWant, wantErr: io.EOF},
		{name: "window filled exactly", writes: [][]byte{full, rawFrame(tail)}, preload: true, want: fullWant, wantErr: io.EOF},
		{name: "frame larger than the window", writes: splitEvery(mixed, 5000), want: mixedWant, wantErr: io.EOF},
		{name: "empty payload", writes: [][]byte{rawFrame(nil), small}, want: [][]byte{{}, patterned(1, 37)}, wantErr: io.EOF},
		{name: "length past maxFrame", writes: [][]byte{small, tooBig[:]}, want: [][]byte{patterned(1, 37)}, wantErr: errFrameTooBig},
		{name: "EOF inside a header", writes: [][]byte{small, small[:2]}, want: [][]byte{patterned(1, 37)}, wantErr: io.ErrUnexpectedEOF},
		{name: "EOF inside a payload", writes: [][]byte{small[:20]}, wantErr: io.ErrUnexpectedEOF},
	}
	// One frame cut in two at every offset, header included.
	for k := 1; k < len(small); k++ {
		cases = append(cases, streamCase{name: fmt.Sprintf("split at %d", k),
			writes: [][]byte{small[:k], small[k:]}, want: [][]byte{patterned(1, 37)}, wantErr: io.EOF})
	}

	for _, path := range readPaths {
		for _, tc := range cases {
			t.Run(path.name+"/"+tc.name, func(t *testing.T) {
				w, r := tcpPair(t)
				var fs frameStream
				if !tc.preload {
					fs = streamFrames(path.wrap(r), nil)
				}
				for i, chunk := range tc.writes {
					if i > 0 && !tc.preload {
						time.Sleep(100 * time.Microsecond)
					}
					if _, err := w.Write(chunk); err != nil {
						t.Fatal(err)
					}
				}
				if tc.preload {
					fs = streamFrames(path.wrap(r), nil)
				}
				for i, want := range tc.want {
					if got := fs.next(t); !bytes.Equal(got, want) {
						t.Fatalf("frame %d differs (%d bytes, want %d)", i, len(got), len(want))
					}
				}
				// Close once the reader has taken every whole frame, so the
				// FIN is an event of its own (TestCloseBehindData is the
				// other order).
				w.Close()
				if err := fs.wait(t); !errors.Is(err, tc.wantErr) {
					t.Errorf("stream ended with %v, want %v", err, tc.wantErr)
				}
				select {
				case p := <-fs.frames:
					t.Errorf("%d-byte frame delivered past the expected ones", len(p))
				default:
				}
			})
		}
	}
}

// TestCloseBehindData is the case the short-read rule cannot see through:
// the peer's close is already queued behind the data when the reader gets
// to it, so no wake-up follows the read that drains the data. A reader
// that is owed something must find the close by itself; a partial frame is
// reason enough.
func TestCloseBehindData(t *testing.T) {
	frame := rawFrame(patterned(1, 37))
	for _, path := range readPaths {
		for _, tc := range []struct {
			name    string
			stream  []byte
			owed    func() bool
			frames  int
			wantErr error
		}{
			{"between frames, a reply owed", frame, func() bool { return true }, 1, io.EOF},
			{"inside a frame", append(append([]byte(nil), frame...), frame[:9]...), nil, 1, io.ErrUnexpectedEOF},
		} {
			t.Run(path.name+"/"+tc.name, func(t *testing.T) {
				w, r := tcpPair(t)
				if _, err := w.Write(tc.stream); err != nil {
					t.Fatal(err)
				}
				w.Close()
				time.Sleep(time.Millisecond) // let the FIN land: the order is the point
				fs := streamFrames(path.wrap(r), tc.owed)
				for i := 0; i < tc.frames; i++ {
					fs.next(t)
				}
				if err := fs.wait(t); !errors.Is(err, tc.wantErr) {
					t.Errorf("stream ended with %v, want %v", err, tc.wantErr)
				}
			})
		}
	}
}

func splitEvery(b []byte, n int) [][]byte {
	var out [][]byte
	for len(b) > n {
		out = append(out, b[:n])
		b = b[n:]
	}
	return append(out, b)
}

// TestReadFramesStops checks onFrame's false ends the loop with no error
// and nothing delivered past it.
func TestReadFramesStops(t *testing.T) {
	for _, path := range readPaths {
		t.Run(path.name, func(t *testing.T) {
			w, r := tcpPair(t)
			stream := append(rawFrame([]byte("one")), rawFrame([]byte("two"))...)
			if _, err := w.Write(stream); err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := readFrames(path.wrap(r), func([]byte) bool { n++; return false }, nil); err != nil || n != 1 {
				t.Fatalf("stopped reader: err = %v after %d frames, want nil after 1", err, n)
			}
		})
	}
}

// startServer runs serve over a loopback listener whose accepted conns are
// read through wrap, and returns its address.
func startServer(t *testing.T, handle func(context.Context, *Request) Response, wrap func(net.Conn) net.Conn, ct *connTracker) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go serve(wrapListener{ln, wrap}, handle, ct)
	return ln.Addr().String()
}

// startEchoServer serves a handler that answers OpMultiPut with the first
// value it was sent, keeps the last one for OpMultiGet, and acks everything
// else.
func startEchoServer(t *testing.T, wrap func(net.Conn) net.Conn, ct *connTracker) string {
	t.Helper()
	var mu sync.Mutex
	var last []byte
	return startServer(t, func(_ context.Context, req *Request) Response {
		switch req.Op {
		case OpMultiPut:
			v := append([]byte(nil), req.Values[0]...)
			mu.Lock()
			last = v
			mu.Unlock()
			return Response{OK: true, Values: [][]byte{v}, Founds: []bool{true}}
		case OpMultiGet:
			mu.Lock()
			defer mu.Unlock()
			return Response{OK: true, Values: [][]byte{last}, Founds: []bool{true}}
		}
		return Response{OK: true}
	}, wrap, ct)
}

// echoPut is the OpMultiPut of one value the echo server answers.
func echoPut(value []byte) *Request {
	return &Request{Op: OpMultiPut, Keys: []uint64{1}, Values: [][]byte{value}}
}

// echoed is the value an echo-server reply carries (nil when it has none).
func echoed(resp *Response) []byte {
	if len(resp.Values) != 1 {
		return nil
	}
	return resp.Values[0]
}

// dialThrough is Dial with the client end read through wrap.
func dialThrough(t *testing.T, addr string, wrap func(net.Conn) net.Conn) *Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cn := newConn(wrap(c), addr)
	t.Cleanup(func() { cn.Close() })
	return cn
}

// TestLargeFrameThenSmall sends a value far past the read window through
// both readers (OpMultiPut up, OpMultiGet down) and checks the conn still frames the
// small calls that follow.
func TestLargeFrameThenSmall(t *testing.T) {
	for _, path := range readPaths {
		t.Run(path.name, func(t *testing.T) {
			cn := dialThrough(t, startEchoServer(t, path.wrap, nil), path.wrap)
			ctx, cancel := context.WithTimeout(context.Background(), stall)
			defer cancel()
			value := patterned(3, 1<<20)
			if _, err := cn.Call(ctx, echoPut(value)); err != nil {
				t.Fatal(err)
			}
			resp, err := cn.Call(ctx, &Request{Op: OpMultiGet, Keys: []uint64{1}})
			if err != nil || !bytes.Equal(echoed(&resp), value) {
				t.Fatalf("1 MiB value came back as %d bytes, err = %v", len(echoed(&resp)), err)
			}
			for i := 0; i < 10; i++ {
				if _, err := cn.Call(ctx, &Request{Op: OpPing}); err != nil {
					t.Fatalf("ping %d after the large frame: %v", i, err)
				}
			}
		})
	}
}

// pingFrameLen is the wire size of one OpPing request (tags below 128).
var pingFrameLen = len(encodeRequestFrame(nil, 1, &Request{Op: OpPing}, 0, new([]byte)))

// startScriptedPeer plays a server that accepts one conn, waits until
// calls pings are on the wire, answers with reply and hangs up at once — so
// the close sits right behind the reply.
func startScriptedPeer(t *testing.T, calls int, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := io.ReadFull(c, make([]byte, calls*pingFrameLen)); err != nil {
			return
		}
		c.Write(reply)
	}()
	return ln.Addr().String()
}

// TestBrokenStreamFailsPendingCalls breaks a client's stream in each way
// the reader can meet, with several calls in flight: every call the peer
// did not answer fails with query.ErrUnavailable naming what the reader
// saw — at once, not at its deadline.
func TestBrokenStreamFailsPendingCalls(t *testing.T) {
	var tooBig [frameHeader]byte
	binary.LittleEndian.PutUint32(tooBig[:], maxFrame+1)
	var scratch []byte
	reply := encodeResponseFrame(nil, 1, &Response{OK: true, Values: [][]byte{patterned(5, 64)}, Founds: []bool{true}}, &scratch)
	for _, path := range readPaths {
		for _, tc := range []struct {
			name     string
			reply    []byte
			answered int
			msg      string
		}{
			{"length past maxFrame", tooBig[:], 0, errFrameTooBig.Error()},
			{"empty payload", rawFrame(nil), 0, "malformed frame"},
			{"corrupt stats payload", corruptStatsFrame(), 0, "response: malformed wire encoding"},
			{"EOF inside a frame", reply[:len(reply)/2], 0, io.ErrUnexpectedEOF.Error()},
			{"EOF behind a whole reply", reply, 1, io.EOF.Error()},
		} {
			t.Run(path.name+"/"+tc.name, func(t *testing.T) {
				const calls = 4
				cn := dialThrough(t, startScriptedPeer(t, calls, tc.reply), path.wrap)
				errs := make(chan error, calls)
				for i := 0; i < calls; i++ {
					go func() {
						// No deadline: only the reader can end these calls.
						_, err := cn.Call(context.Background(), &Request{Op: OpPing})
						errs <- err
					}()
				}
				answered := 0
				for i := 0; i < calls; i++ {
					var err error
					select {
					case err = <-errs:
					case <-time.After(stall):
						t.Fatal("a pending call outlived its stream")
					}
					switch {
					case err == nil:
						answered++
					case !errors.Is(err, query.ErrUnavailable) || !strings.Contains(err.Error(), tc.msg):
						t.Errorf("pending call: err = %v, want unavailable naming %q", err, tc.msg)
					}
				}
				if answered != tc.answered {
					t.Errorf("%d calls answered, want %d", answered, tc.answered)
				}
				if !cn.Broken() {
					t.Error("conn not marked broken")
				}
			})
		}
		// With nothing pending the reader may sleep through a close that
		// rode in with the last reply; the next call's write wakes it.
		t.Run(path.name+"/idle conn, peer gone", func(t *testing.T) {
			reply := encodeResponseFrame(nil, 1, &Response{OK: true}, &scratch)
			cn := dialThrough(t, startScriptedPeer(t, 1, reply), path.wrap)
			if _, err := cn.Call(context.Background(), &Request{Op: OpPing}); err != nil {
				t.Fatal(err)
			}
			within(t, "a call to a peer that hung up", func() {
				if _, err := cn.Call(context.Background(), &Request{Op: OpPing}); !errors.Is(err, query.ErrUnavailable) {
					t.Errorf("err = %v, want unavailable", err)
				}
			})
		})
	}
}

// TestBadFramesDropTheConn sends a server each kind of broken stream: it
// hangs up.
func TestBadFramesDropTheConn(t *testing.T) {
	var tooBig [frameHeader]byte
	binary.LittleEndian.PutUint32(tooBig[:], maxFrame+1)
	ping := encodeRequestFrame(nil, 1, &Request{Op: OpPing}, 0, new([]byte))
	for _, path := range readPaths {
		for _, tc := range []struct {
			name      string
			bytes     []byte
			halfClose bool
		}{
			{"length past maxFrame", tooBig[:], false},
			{"empty payload", rawFrame(nil), false},
			{"undecodable request", rawFrame([]byte{1, 0xff}), false},
			{"EOF inside a frame", ping[:len(ping)-1], true},
		} {
			t.Run(path.name+"/"+tc.name, func(t *testing.T) {
				c, err := net.Dial("tcp", startEchoServer(t, path.wrap, nil))
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if _, err := c.Write(tc.bytes); err != nil {
					t.Fatal(err)
				}
				if tc.halfClose {
					c.(*net.TCPConn).CloseWrite()
				}
				c.SetReadDeadline(time.Now().Add(stall))
				if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("server kept the conn: read %d bytes, err = %v", n, err)
				}
			})
		}
	}
}

// within fails the test when f has not returned in time — the shape of a
// Close that waits on a reader nobody woke.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(stall):
		t.Fatalf("%s did not return", what)
	}
}

// TestCloseWakesParkedReader closes idle connections from each side that
// can: the close must wake the reader out of its park, and returns only
// once the reader goroutine is gone.
func TestCloseWakesParkedReader(t *testing.T) {
	ctx := context.Background()
	for _, path := range readPaths {
		t.Run(path.name, func(t *testing.T) {
			var ct connTracker
			addr := startEchoServer(t, path.wrap, &ct)

			cn := dialThrough(t, addr, path.wrap)
			if _, err := cn.Call(ctx, &Request{Op: OpPing}); err != nil {
				t.Fatal(err)
			}
			within(t, "Conn.Close", func() { cn.Close() })
			select {
			case <-cn.done:
			default:
				t.Fatal("Conn.Close returned with the demux still running")
			}
			if _, err := cn.Call(ctx, &Request{Op: OpPing}); !errors.Is(err, query.ErrUnavailable) {
				t.Fatalf("call on a closed conn: err = %v, want unavailable", err)
			}

			p := NewPool(addr, 3)
			var wg sync.WaitGroup
			for i := 0; i < 6; i++ { // concurrent first calls fill the pool
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := p.Ping(ctx); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			p.mu.Lock()
			conns := append([]*Conn(nil), p.conns...)
			p.mu.Unlock()
			within(t, "Pool.Close", p.Close)
			for _, cn := range conns {
				select {
				case <-cn.done:
				default:
					t.Fatal("Pool.Close returned with a demux still running")
				}
			}

			// The server's side: its read loops are parked on conns whose
			// clients are alive and idle.
			idle := []*Conn{dialThrough(t, addr, path.wrap), dialThrough(t, addr, path.wrap)}
			for _, cn := range idle {
				if _, err := cn.Call(ctx, &Request{Op: OpPing}); err != nil {
					t.Fatal(err)
				}
			}
			within(t, "connTracker.closeAll", ct.closeAll)
			for _, cn := range idle {
				within(t, "the client of a severed conn", func() { <-cn.done })
				if !cn.Broken() {
					t.Error("client conn not broken after the server severed it")
				}
			}
		})
	}
}

// TestPipelinedCallsNeverStall is the lost-wakeup stress: callers keep one
// conn's two readers cycling between parked, mid-window and mid-large-frame
// with replies of mixed sizes. A readiness edge dropped between a short
// read and the park leaves a reply in the socket with nobody to read it,
// so the failure is a call that times out. Run with -race -count=10.
func TestPipelinedCallsNeverStall(t *testing.T) {
	sizes := []int{0, 17, 900, 0, 5000, 64, frameWindow - 30, 1, 3 * frameWindow}
	pattern := patterned(0, 3*frameWindow+256) // values are windows of it: cheap under -race
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
	for _, path := range readPaths {
		t.Run(path.name, func(t *testing.T) {
			cn := dialThrough(t, startEchoServer(t, path.wrap, nil), path.wrap)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					var resp Response
					for i := 0; i < rounds; i++ {
						n := sizes[(i+c)%len(sizes)]
						if n > frameWindow && i%16 != 0 {
							n = 2 // keep the large frames rare enough to stay quick under -race
						}
						off := (c*31 + i) % 256
						value := pattern[off : off+n]
						if err := cn.CallInto(ctx, &Request{Op: OpMultiPut, Keys: []uint64{uint64(c)}, Values: [][]byte{value}}, &resp); err != nil {
							t.Errorf("caller %d round %d (%d bytes): %v", c, i, n, err)
							return
						}
						if !bytes.Equal(echoed(&resp), value) {
							t.Errorf("caller %d round %d: sent %d bytes, got %d back", c, i, n, len(echoed(&resp)))
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// ioCrossings reads this process's read(2)+write(2) family call count from
// /proc/self/io — what strace -c would total, without strace. Tests that
// compare two readings must not run in parallel with anything.
func ioCrossings(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no per-process I/O accounting here: %v", err)
	}
	var total int64
	found := 0
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok || (name != "syscr" && name != "syscw") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			t.Skipf("unreadable /proc/self/io line %q", line)
		}
		total += n
		found++
	}
	if found != 2 {
		t.Skipf("/proc/self/io has no syscr/syscw")
	}
	return total
}

// TestPingCrossings pins what one round trip costs in kernel crossings
// when both ends live in this process: two frames, so two writes and two
// reads. With net.Conn.Read under the reader each idle wake-up costs a
// second read that returns EAGAIN, and the figure is 6.
func TestPingCrossings(t *testing.T) {
	cn := dialThrough(t, startEchoServer(t, readPaths[0].wrap, nil), readPaths[0].wrap)
	ctx := context.Background()
	var resp Response
	ping := func(n int) {
		for i := 0; i < n; i++ {
			if err := cn.CallInto(ctx, &Request{Op: OpPing}, &resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	ping(100)
	const pings = 1000
	before := ioCrossings(t)
	ping(pings)
	perPing := float64(ioCrossings(t)-before) / pings
	t.Logf("%.2f read/write calls per ping", perPing)
	if perPing > 4.2 {
		t.Errorf("a ping costs %.2f read/write calls, want <= 4.2 (2 frames x 2 ends)", perPing)
	}
}
