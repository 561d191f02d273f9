package rpc

import (
	"context"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/query"
)

// closeNoticed bounds how long a call owed a reply may wait on a peer that
// has closed: finProbe, plus room for a loaded host to schedule the reader.
const closeNoticed = time.Second

// TestOwedCallSeesCloseBehindReply is TestCloseBehindData at the Conn
// level: two calls are pending, and the peer answers one and hangs up. The
// peer corks its socket (TCP_CORK), so the reply waits in its send queue
// and leaves with the FIN in one segment: the client's reader wakes once,
// for both, and the read that drains the reply is short. The other call
// must then fail with query.ErrUnavailable within closeNoticed. A reader
// that parks on that short read with nothing to wake it fails it only when
// the conn is closed, after stall. Run with -race -count=20.
func TestOwedCallSeesCloseBehindReply(t *testing.T) {
	for _, path := range readPaths {
		t.Run(path.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			closed := make(chan time.Time, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				if _, err := io.ReadFull(c, make([]byte, 2*pingFrameLen)); err != nil {
					return
				}
				if err := cork(c); err != nil {
					t.Error(err)
					return
				}
				c.Write(encodeResponseFrame(nil, 1, &Response{OK: true}, new([]byte)))
				c.Close()
				closed <- time.Now()
			}()

			cn := dialThrough(t, ln.Addr().String(), path.wrap)
			type outcome struct {
				err error
				at  time.Time
			}
			outs := make(chan outcome, 2)
			for i := 0; i < 2; i++ {
				go func() {
					// No deadline: only the reader can end the unanswered call.
					_, err := cn.Call(context.Background(), &Request{Op: OpPing})
					outs <- outcome{err, time.Now()}
				}()
			}
			var closedAt time.Time
			select {
			case closedAt = <-closed:
			case <-time.After(stall):
				t.Fatal("the peer never saw both calls")
			}
			answered := 0
			for i := 0; i < 2; i++ {
				var o outcome
				select {
				case o = <-outs:
				case <-time.After(stall):
					t.Fatal("a call owed a reply outlived its peer")
				}
				switch took := o.at.Sub(closedAt); {
				case o.err == nil:
					answered++
				case !errors.Is(o.err, query.ErrUnavailable):
					t.Errorf("unanswered call: err = %v, want unavailable", o.err)
				case took > closeNoticed:
					t.Errorf("the unanswered call failed %v after its peer closed, want within %v", took, closeNoticed)
				default:
					t.Logf("the unanswered call failed %v after its peer closed", took.Round(100*time.Microsecond))
				}
			}
			if answered != 1 {
				t.Errorf("%d calls answered, want 1", answered)
			}
		})
	}
}

// cork holds what is written to c in its send queue until c is closed or
// the queue fills a segment.
func cork(c net.Conn) error {
	rc, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_CORK, 1)
	}); err != nil {
		return err
	}
	return serr
}
