//go:build unix

package rpc

import (
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"time"
)

// finProbe is how long a client's reader parks, while a reply is owed,
// before it reads once to see whether the peer closed behind the last
// reply: the bound on noticing that close (see readFrames).
const finProbe = 5 * time.Millisecond

// readFrames reads c until it fails or onFrame returns false, handing
// onFrame every frame payload in arrival order. A payload is only valid
// during the call: it aliases the read window (a frame larger than the
// window gets a buffer of its own for its lifetime), so onFrame decodes
// before it returns. The result is nil when onFrame stopped the loop, else
// what ended the stream: io.EOF between frames, io.ErrUnexpectedEOF inside
// one, errFrameTooBig, or the socket's error.
//
// On a conn that exposes its descriptor the loop costs one read(2) per
// wake-up instead of net.Conn.Read's two (read → EAGAIN → park → read): a
// read that returns fewer bytes than it asked for has drained a stream
// socket's receive queue (epoll(7)), so the goroutine parks on the
// netpoller without asking again. Three constraints shape it:
//
//   - The loop parks only inside a RawConn.Read callback's run. Every new
//     call starts with prepareRead → runtime_pollReset, which clears a
//     readiness edge that arrived after the short read; parking first in a
//     fresh call would sleep through it. Inside one call the edge stays
//     latched until waitRead consumes it, and the one new call the loop
//     makes (below, after its deadline fired) reads before it parks.
//   - Neither the callback nor onFrame may close c: poll.FD.Close waits for
//     the read lock the callback holds. Callers record why they stopped,
//     return false, and close after readFrames has returned.
//   - A short read proves there is no more data, not that the peer is still
//     there: a FIN that lands before the goroutine has read the bytes ahead
//     of it shares their wake-up, and the netpoller does not say which of
//     the two woke it. Parking then sleeps on a closed stream until this
//     end writes (the peer resets, which is a new edge). A server passes
//     owed nil: every request it reads gets a reply, whose write finds the
//     dead peer. It parks on a short read between frames; inside a frame it
//     reads once more, as net.Conn.Read would, and parks on EAGAIN. A
//     client passes "calls are pending" and parks on every short read.
//     While a reply is owed (or a frame is half read) it parks under a read
//     deadline finProbe ahead, pushed back at each such park and cleared at
//     the first park with nothing owed. When it fires, the loop clears it
//     and makes a new call, whose first read finds the FIN, data, or EAGAIN
//     (then nothing was queued, and any later arrival is an edge of its
//     own). So a client notices a close behind a reply within finProbe
//     without a read per wake-up. The deadline is a runtime timer, and a
//     thread that idles while one is pending breaks the netpoller (an
//     eventfd write and read), so none is left armed while nothing is owed.
//
// Other conns (and non-unix builds) take readFramesBuffered.
func readFrames(c net.Conn, onFrame func(payload []byte) bool, owed func() bool) error {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return readFramesBuffered(c, onFrame)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	var (
		win   = make([]byte, frameWindow)
		buf   = win // read target: win, or an oversized frame's own buffer
		r, w  int   // buf[r:w] is read and not yet delivered
		rerr  error
		armed bool // c's read deadline is set
	)
	read := func(fd uintptr) (done bool) {
		for {
			n, err := syscall.Read(int(fd), buf[w:])
			switch {
			case err == syscall.EINTR:
				continue
			case err == syscall.EAGAIN:
				return false
			case err != nil:
				rerr = &net.OpError{Op: "read", Net: "tcp", Source: c.LocalAddr(), Addr: c.RemoteAddr(), Err: os.NewSyscallError("read", err)}
				return true
			case n == 0:
				rerr = io.EOF
				if w > r {
					rerr = io.ErrUnexpectedEOF
				}
				return true
			}
			drained := n < len(buf)-w
			w += n

			need := 0 // bytes the frame at r spans, once its header is in
			for r < w {
				size, k, herr := frameLen(buf[r:w])
				if herr != nil {
					rerr = herr
					return true
				}
				if k == 0 {
					break // the header is split across reads
				}
				need = k + size
				if w-r < need {
					break
				}
				if !onFrame(buf[r+k : r+need]) {
					return true
				}
				r += need
				need = 0
			}
			// Leave room at buf[w:] for the rest of a partial frame.
			switch {
			case r == w:
				buf, r, w = win, 0, 0
			case need > len(buf):
				big := make([]byte, need)
				w = copy(big, buf[r:w])
				buf, r = big, 0
			case r > 0:
				w = copy(buf, buf[r:w])
				r = 0
			}
			if !drained || owed == nil && w > 0 {
				continue
			}
			if wait := owed != nil && (w > 0 || owed()); wait || armed {
				var deadline time.Time
				if wait {
					deadline = time.Now().Add(finProbe)
				}
				if rerr = c.SetReadDeadline(deadline); rerr != nil {
					return true
				}
				armed = wait
			}
			return false
		}
	}
	for {
		err = rc.Read(read)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			break
		}
		// The deadline fired: a new call's first read looks for the FIN.
		armed = false
		if err = c.SetReadDeadline(time.Time{}); err != nil {
			break
		}
	}
	if err != nil {
		return err
	}
	return rerr
}
