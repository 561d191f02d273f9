// Package rpc implements a real networked deployment of the decoupled
// architecture: storage servers, query processors and the query router as
// separate TCP daemons speaking a hand-rolled, length-prefixed binary
// protocol with pipelined connections.
//
// The virtual-time engine in internal/core is the instrument that
// reproduces the paper's measurements; this package demonstrates that the
// same components (hash-partitioned adjacency storage, LRU-cached
// processors, strategy-driven router) run over a real network. Every call
// takes a context.Context: deadlines propagate over the wire (the router
// forwards the client's remaining budget to the processors) and
// cancellation unblocks in-flight calls. Failures map onto the shared
// typed errors (query.ErrBadQuery, query.ErrUnknownNode,
// query.ErrUnavailable, …; errorCodes lists them) on both sides of the
// connection.
//
// Wire format: see wire.go (framing) and codec.go (payloads). Every frame
// carries a tag, and each connection multiplexes many in-flight calls — a
// per-connection demux goroutine matches response tags to waiting callers,
// so a cancelled or slow call never blocks (or poisons) the shared socket.
//
// Both ends of a connection read it through readFrames (frames_unix.go):
// one goroutine per conn, one 32 KiB window, frames decoded in place, and
// on unix one read(2) per wake-up — a frame costs its writer one crossing
// and its reader one, so a query costs what its hop count says. Elsewhere,
// and on a conn that hides its descriptor, the same loop runs over bufio
// (readFramesBuffered, wire.go); the build tag and a syscall.Conn assertion
// are the only switch between the two. Writes are one Write per frame under
// a per-conn mutex.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/gstore"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/mquery"
	"repro/internal/query"
)

// Op enumerates protocol operations. On the wire it is a single byte.
type Op uint8

// Protocol operations.
const (
	// OpPing checks liveness.
	OpPing Op = 1 + iota
	// Op 2 is retired: a single-key read is an OpMultiGet of one.
	_
	// OpMultiGet fetches many values from a storage server.
	OpMultiGet
	// Op 4 is retired: a single-key write is an OpMultiPut of one.
	_
	// OpExecute runs a batch of one or more queries on a processor (or, via
	// the router, on whichever processors the routing strategy picks).
	OpExecute
	// OpStats asks a daemon for its counters.
	OpStats
	// OpJoin registers a processor with the router at runtime: the request
	// carries the processor's advertised address, the response its assigned
	// slot and the new topology epoch (membership op, router role only).
	OpJoin
	// OpDrain deregisters a processor cleanly: it stops receiving new work
	// and leaves the membership once its in-flight queries finish on the
	// old view — the graceful-shutdown path, as opposed to just vanishing
	// and being a dead peer.
	OpDrain
	// OpMutate applies a batch of graph mutations through the router: the
	// router serialises writers, rewrites the affected records on every
	// replica of their placement, and before acking queues their
	// invalidation for every processor, to ride the next OpExecute frame it
	// forwards there — read-your-writes for any client of the router (router
	// role only).
	OpMutate
	// OpEvict removes keys from a processor's record cache (processor
	// role). A mutation's invalidations normally reach a processor as the
	// Keys and Values of an OpExecute frame; the router sends an explicit
	// OpEvict only to a processor whose backlog of them outgrew its bound
	// because no query was routed there, and a tool may send one to cool a
	// cache.
	OpEvict
	// Ops 11–13 are retired: the heat drain, migration cycle and pin push of
	// adaptive placement over TCP, which lives in virtual time only.
	_
	_
	_
	// OpDrop deletes Keys from a storage shard: a rolled-back write's restore
	// of a record that did not exist before it. Durable shards log each
	// present key, so a restart cannot resurrect a dropped record (storage
	// role).
	OpDrop
	// OpMultiPut stores Values[i] under Keys[i] on a storage server: one
	// lock acquisition and, on a durable shard, one WAL write for the whole
	// frame. It is the one write: the loader's chunks, a mutation's
	// rewritten records and its roll-back travel as one OpMultiPut per
	// shard of their placement. The reply is OK or a typed error for the
	// whole batch: a failed log append leaves all of it unacked.
	OpMultiPut
)

// opNames names the ops; a retired or unknown one prints as its number.
var opNames = [...]string{
	OpPing: "ping", OpMultiGet: "multiget", OpExecute: "execute", OpStats: "stats",
	OpJoin: "join", OpDrain: "drain", OpMutate: "mutate", OpEvict: "evict",
	OpDrop: "drop", OpMultiPut: "multiput",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Request is the request envelope. Only the fields of the active operation
// are populated; everything else stays at its zero value, and the binary
// codec presence-encodes fields — a ping encodes to a few bytes, not the
// full union.
type Request struct {
	Op Op
	// Keys serves OpMultiGet, OpMultiPut, OpDrop and OpEvict — and OpExecute
	// on the router → processor leg, where it names the records a processor
	// must bring up to date in its cache before it runs the frame's queries
	// (the invalidations of mutations acked since the processor last
	// answered a frame). Absent when empty, like every field. Every storage
	// op is batched: a single key travels as a Keys of one.
	Keys []uint64
	// Values serves OpMultiPut, positionally aligned with Keys — and an
	// OpExecute frame's invalidations: Values[i] is Keys[i]'s edit stream
	// (gstore.AppendEdits), which the processor applies to its cached copy,
	// or empty, which evicts it.
	Values [][]byte
	// valBuf holds the bytes of a decoded request's Values: one buffer the
	// decoder copies every value into and reuses with the request.
	valBuf []byte
	// OutOnly serves OpMultiGet: the reader follows only out-edges, so the
	// shard answers each found value with its out-prefix (gstore.Project).
	OutOnly bool
	// Exec serves OpExecute; nil for every other op.
	Exec *ExecRequest
	// Addr serves OpJoin (the joining member's advertised address) and
	// may identify the member to OpDrain instead of Proc.
	Addr string
	// Proc identifies the member slot for OpDrain (ignored when Addr is
	// set).
	Proc int
	// Tier selects which tier a membership op (OpJoin / OpDrain) targets:
	// "storage" for the storage tier, empty or "proc" for the processing
	// tier. Each tier has its own epoch counter; the response's Epoch is
	// the targeted tier's.
	Tier string
	// Version serves OpJoin for the storage tier: the joining shard's
	// durable version watermark (records recovered from its local WAL).
	// A restarting shard announces how warm it came back, so
	// the router's topology view can distinguish a cold joiner (0) from a
	// warm rejoin. Zero for non-durable shards and processor joins. On an
	// OpExecute frame that carries Keys it is the router's sequence number
	// just past them: a processor applies the edits of a frame numbered at
	// or above every frame it applied before, and evicts the keys of one
	// that was overtaken.
	Version uint64
	// Muts serves OpMutate; nil for every other op. Labels ride as strings
	// (the router interns them against the loaded graph's label table).
	Muts []query.Mutation
	// Deadline is the absolute deadline in Unix nanoseconds (0 = none) the
	// frame header carries, so every op propagates it. Left 0, Conn.CallInto
	// sends the call context's deadline; decode fills it from the header,
	// and serveConn turns it back into the handler's context, which the
	// daemon's own downstream calls (router → processor → storage) carry on
	// in turn.
	Deadline int64
}

// ExecRequest is the OpExecute payload: a batch of queries, or one wave's
// subtasks.
type ExecRequest struct {
	Queries []query.Query
	// Subtasks serves the router→processor leg of a multi-anchor query:
	// the per-anchor work units of one wave routed to this processor.
	// Mutually exclusive with Queries; nil on the client→router leg.
	Subtasks []mquery.Subtask
}

// Response is the response envelope. As with Request, inactive payloads
// stay zero/nil and are omitted from the wire.
type Response struct {
	OK   bool
	Err  string
	Code ErrCode
	// Values and Founds serve OpMultiGet, positionally aligned with the
	// request's Keys: Founds[i] false means no record is stored under
	// Keys[i].
	Values [][]byte
	Founds []bool
	// Results serves OpExecute, positionally aligned with Exec.Queries.
	Results []query.Result
	// Partials serves a subtask OpExecute, positionally aligned with
	// Exec.Subtasks.
	Partials []mquery.Partial
	// Epoch stamps the router's topology epoch on the response: the epoch
	// the queries of an OpExecute were routed under (in-flight queries
	// drain on the view of the epoch that routed them), or the epoch a
	// membership op produced.
	Epoch uint64
	// Proc serves OpJoin: the slot the router assigned to the joiner.
	Proc int
	// Stats serves OpStats; nil for every other op.
	Stats *Stats
	// Applied serves OpMutate: mutations applied before the first failure.
	Applied int
}

// Stats is a daemon's answer to OpStats: its role, the requests it served,
// and its row in the snapshot's own types — the one a role fills, the
// others nil. The wire form is the declaration order (see appendFields).
type Stats struct {
	Role     string
	Requests int64
	// Executed counts the queries a processor ran.
	Executed int64
	// Cache is a processor's cache counters.
	Cache *metrics.CacheCounters
	// Storage is a storage shard's row (kvstore.Shard.Counters), which the
	// router's snapshot takes as it is.
	Storage *metrics.StorageCounters
	// Snapshot is the router's system-wide snapshot: the structure the
	// virtual-time engine reports, so both transports read alike.
	Snapshot *metrics.Snapshot
}

// ErrCode classifies a remote failure so the client can reconstruct the
// matching typed error.
type ErrCode string

// Error codes.
const (
	// CodeBadQuery maps to query.ErrBadQuery.
	CodeBadQuery ErrCode = "bad-query"
	// CodeUnknownNode maps to query.ErrUnknownNode.
	CodeUnknownNode ErrCode = "unknown-node"
	// CodeUnavailable maps to query.ErrUnavailable.
	CodeUnavailable ErrCode = "unavailable"
	// CodeConflict maps to query.ErrConflict.
	CodeConflict ErrCode = "conflict"
	// CodeInternal is everything else.
	CodeInternal ErrCode = "internal"
	// CodeCorrupt maps to gstore.ErrCorrupt.
	CodeCorrupt ErrCode = "corrupt"
	// CodeShardFull maps to kvstore.ErrShardFull.
	CodeShardFull ErrCode = "shard-full"
)

// errorCodes is the one mapping between the wire's error codes and the
// sentinels a failure wraps. A row's index is its wire status (statusErr +
// index), so rows are only ever appended: a peer from before a row reads its
// status as CodeInternal. errorResponse classifies an error by the first row
// whose sentinel it wraps, and respError hands that sentinel back, so
// errors.Is holds on both sides of a connection.
var errorCodes = [...]struct {
	code     ErrCode
	sentinel error // nil for CodeInternal, which no sentinel maps to
}{
	{CodeBadQuery, query.ErrBadQuery},
	{CodeUnknownNode, query.ErrUnknownNode},
	{CodeUnavailable, query.ErrUnavailable},
	{CodeConflict, query.ErrConflict},
	{CodeInternal, nil},
	{CodeCorrupt, gstore.ErrCorrupt},
	{CodeShardFull, kvstore.ErrShardFull},
}

// codeRow is code's row in errorCodes; a code outside the table is
// CodeInternal's.
func codeRow(code ErrCode) int {
	for i, row := range errorCodes {
		if row.code == code {
			return i
		}
	}
	return codeRow(CodeInternal)
}

// errorResponse wraps err into a Response, classifying it for the client.
// The order of errorCodes is also the precedence: an error that wraps two
// sentinels takes the earlier row's code (ErrUnavailable with ErrConflict is
// CodeUnavailable). Any sentinel outranks a deadline or a cancellation
// (ErrCorrupt with context.Canceled is CodeCorrupt); one that wraps no
// sentinel is CodeUnavailable. TestErrorCodesRoundTrip pins both cases.
func errorResponse(err error) Response {
	code := CodeInternal
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		code = CodeUnavailable
	}
	for _, row := range errorCodes {
		if errors.Is(err, row.sentinel) { // never for the nil sentinel
			code = row.code
			break
		}
	}
	return Response{Err: err.Error(), Code: code}
}

// remoteError is a failure reported by (or on the way to) a remote daemon.
// It unwraps to the shared typed sentinel so errors.Is works across the
// network boundary.
type remoteError struct {
	addr string
	msg  string
	kind error // sentinel, or nil
}

func (e *remoteError) Error() string { return "rpc: " + e.addr + ": " + e.msg }
func (e *remoteError) Unwrap() error { return e.kind }

// respError reconstructs the typed error carried by a response.
func respError(addr string, resp *Response) error {
	if resp.Err == "" {
		return nil
	}
	return &remoteError{addr: addr, msg: resp.Err, kind: errorCodes[codeRow(resp.Code)].sentinel}
}

// checkResults refuses an OK execute reply that does not carry one result
// per query and one partial per subtask (the codec omits an empty slice):
// every caller indexes them positionally.
func checkResults(addr string, resp *Response, queries, subtasks int) error {
	if len(resp.Results) == queries && len(resp.Partials) == subtasks {
		return nil
	}
	return &remoteError{addr: addr, kind: query.ErrUnavailable, msg: fmt.Sprintf("got %d results and %d partials for %d queries and %d subtasks",
		len(resp.Results), len(resp.Partials), queries, subtasks)}
}

// execRequest assembles an OpExecute request.
func execRequest(qs []query.Query) *Request {
	return &Request{Op: OpExecute, Exec: &ExecRequest{Queries: qs}}
}

// pcall is one in-flight pipelined call. The struct (and its signal
// channel) is pooled and reused across calls.
type pcall struct {
	done chan struct{}
	resp *Response // decode target, owned by the caller
	err  error     // transport/protocol failure, set before done is signalled
}

var callPool = sync.Pool{New: func() any { return &pcall{done: make(chan struct{}, 1)} }}

// reqPool recycles server-side request envelopes (and, via
// decodeRequestInto, their Keys/Values/Muts/Exec buffers) across frames.
// Handlers copy anything they keep — the storage shard copies every value it
// stores — so a request is free for reuse once its response is encoded.
var reqPool = sync.Pool{New: func() any { return new(Request) }}

func getCall(resp *Response) *pcall {
	ca := callPool.Get().(*pcall)
	ca.resp = resp
	ca.err = nil
	return ca
}

func putCall(ca *pcall) {
	ca.resp = nil
	ca.err = nil
	callPool.Put(ca)
}

// Conn is one pipelined client connection: many calls may be in flight
// concurrently, each identified by a tag; a demux goroutine delivers
// responses to their waiting callers. Safe for concurrent use. A cancelled
// or timed-out call abandons only its own tag — the connection stays
// healthy and keeps serving other calls; only a transport or protocol
// failure breaks it (failing every in-flight call with
// query.ErrUnavailable), after which the owner (normally a Pool) discards
// it.
//
// A tag is freed when the demux reads its reply, the reply to an abandoned
// call included, and a new call takes a freed tag before it grows the
// counter. So a late reply never reaches a later call, and a tag stays below
// the calls in flight plus the abandoned ones still owed a reply: one byte
// on the wire up to 127 of them. A peer that never answers an abandoned call
// pins its tag until the connection closes.
type Conn struct {
	c    net.Conn
	addr string
	done chan struct{} // closed when the demux goroutine has exited

	wmu sync.Mutex // serialises frame writes

	mu      sync.Mutex
	nextTag uint64   // the highest tag ever issued
	free    []uint64 // tags whose replies were read, reissued before nextTag grows
	// pending holds each issued tag until its reply is read: the call
	// waiting for it, or nil once that call was abandoned.
	pending map[uint64]*pcall
	broken  error // non-nil once the connection is poisoned
}

// DialContext connects to a daemon, abandoning the connection attempt
// when ctx is cancelled or its deadline passes.
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("rpc: %s: dial: %w", addr, cerr)
		}
		return nil, &remoteError{addr: addr, msg: "dial: " + err.Error(), kind: query.ErrUnavailable}
	}
	return newConn(c, addr), nil
}

// newConn starts the demux over an established connection.
func newConn(c net.Conn, addr string) *Conn {
	cn := &Conn{c: c, addr: addr, done: make(chan struct{}), pending: make(map[uint64]*pcall)}
	go cn.readLoop()
	return cn
}

// Addr returns the remote address.
func (cn *Conn) Addr() string { return cn.addr }

// Broken reports whether a transport failure poisoned the connection.
func (cn *Conn) Broken() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.broken != nil
}

// Call sends req and waits for the response, honouring ctx: cancellation
// or an expired deadline abandons the call immediately (the late response,
// if any, is discarded by the demux) without disturbing other calls in
// flight on the same connection.
func (cn *Conn) Call(ctx context.Context, req *Request) (Response, error) {
	var resp Response
	err := cn.CallInto(ctx, req, &resp)
	return resp, err
}

// CallInto is Call decoding into a caller-owned Response, reusing its
// slice capacity — the zero-alloc path for callers that recycle envelopes.
func (cn *Conn) CallInto(ctx context.Context, req *Request, resp *Response) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("rpc: %s: %w", cn.addr, err)
	}
	ca := getCall(resp)
	cn.mu.Lock()
	if cn.broken != nil {
		cn.mu.Unlock()
		putCall(ca)
		return &remoteError{addr: cn.addr, msg: "connection broken by earlier failure", kind: query.ErrUnavailable}
	}
	var tag uint64
	if n := len(cn.free); n > 0 {
		tag = cn.free[n-1]
		cn.free = cn.free[:n-1]
	} else {
		cn.nextTag++
		tag = cn.nextTag
	}
	cn.pending[tag] = ca
	cn.mu.Unlock()

	// The wire deadline: what the request carries, else the context's.
	dl := req.Deadline
	if dl == 0 {
		if t, ok := ctx.Deadline(); ok {
			dl = t.UnixNano()
		}
	}

	slab := getSlab()
	scratch := getSlab()
	buf := encodeRequestFrame((*slab)[:0], tag, req, dl, scratch)
	putSlab(scratch)
	cn.wmu.Lock()
	_, werr := cn.c.Write(buf)
	cn.wmu.Unlock()
	*slab = buf
	putSlab(slab)
	if werr != nil {
		// A write failure poisons the whole connection (the stream may be
		// half-written); fail delivers to every pending call, ours included.
		cn.fail(&remoteError{addr: cn.addr, msg: "send: " + werr.Error(), kind: query.ErrUnavailable})
	}

	select {
	case <-ca.done:
		return cn.finishCall(ctx, ca, resp)
	case <-ctx.Done():
		cn.mu.Lock()
		if cn.pending[tag] == ca {
			// Abandon only our own call: the tag stays issued until the
			// demux reads and discards the late response, and the
			// connection keeps serving other calls.
			cn.pending[tag] = nil
			cn.mu.Unlock()
			putCall(ca)
			return fmt.Errorf("rpc: %s: %w", cn.addr, ctx.Err())
		}
		cn.mu.Unlock()
		// The demux (or fail) claimed the call first, and the tag may
		// already be reissued: delivery is imminent — take it.
		<-ca.done
		return cn.finishCall(ctx, ca, resp)
	}
}

// finishCall turns a delivered pcall into the caller-visible verdict.
func (cn *Conn) finishCall(ctx context.Context, ca *pcall, resp *Response) error {
	err := ca.err
	putCall(ca)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("rpc: %s: %w", cn.addr, cerr)
		}
		return err
	}
	return respError(cn.addr, resp)
}

// fail poisons the connection: every pending call (and every future one)
// fails with cause, and the socket is closed.
func (cn *Conn) fail(cause error) {
	cn.mu.Lock()
	if cn.broken == nil {
		cn.broken = cause
	}
	pend := cn.pending
	cn.pending = nil
	cn.mu.Unlock()
	for _, ca := range pend {
		if ca == nil {
			continue // abandoned: nobody waits for it
		}
		ca.err = cause
		ca.done <- struct{}{}
	}
	cn.c.Close()
}

// readLoop is the demux: it delivers each frame readFrames hands it to the
// call that owns its tag and frees the tag. Responses to abandoned
// (cancelled) calls are discarded, their tags freed all the same; a
// response to a tag not issued is dropped. Any read or decode failure
// poisons the connection — after readFrames has returned, since fail
// closes the socket and the frame callback must not (see readFrames).
func (cn *Conn) readLoop() {
	defer close(cn.done)
	var cause error
	err := readFrames(cn.c, func(payload []byte) bool {
		tag, rest, ok := peelTag(payload)
		if !ok {
			cause = &remoteError{addr: cn.addr, msg: "recv: malformed frame", kind: query.ErrUnavailable}
			return false
		}
		cn.mu.Lock()
		ca, issued := cn.pending[tag]
		if issued {
			delete(cn.pending, tag)
			cn.free = append(cn.free, tag)
		}
		cn.mu.Unlock()
		if ca == nil {
			// Abandoned call (cancelled or timed out), or a tag never
			// issued: drop the response.
			return true
		}
		if derr := decodeResponseInto(rest, ca.resp); derr != nil {
			// Protocol desync: deliver to this call, then poison the rest.
			cause = &remoteError{addr: cn.addr, msg: derr.Error(), kind: query.ErrUnavailable}
			ca.err = cause
		}
		ca.done <- struct{}{}
		return cause == nil
	}, cn.callsPending)
	if cause == nil {
		cause = &remoteError{addr: cn.addr, msg: "recv: " + err.Error(), kind: query.ErrUnavailable}
	}
	cn.fail(cause)
}

// callsPending tells the reader whether the peer owes this end a response:
// while it does, a peer that closes must be noticed without this end
// writing first, or those calls would wait on a dead stream. So while it
// reports true the reader parks under a read deadline, and a close behind
// the last reply read fails the calls within finProbe (readFrames); while
// it reports false no deadline is armed. A call that registers after the
// check writes after it, and that write provokes the reset the parked
// reader wakes on.
func (cn *Conn) callsPending() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return len(cn.pending) > 0
}

// Close shuts the connection down and waits for its demux goroutine;
// in-flight calls fail with query.ErrUnavailable.
func (cn *Conn) Close() error {
	err := cn.c.Close()
	<-cn.done
	return err
}

// connTracker records a daemon's live connections so Close can sever
// them: closing only the listener would leave pooled client connections
// answering, which is not how a killed server behaves — and the replica
// failover machinery exists precisely for servers that stop answering.
type connTracker struct {
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	serving sync.WaitGroup // one per registered conn, until its serveConn returns
}

// add registers c, reporting false when the tracker is already closed.
func (ct *connTracker) add(c net.Conn) bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.closed {
		return false
	}
	if ct.conns == nil {
		ct.conns = make(map[net.Conn]struct{})
	}
	ct.conns[c] = struct{}{}
	ct.serving.Add(1)
	return true
}

func (ct *connTracker) remove(c net.Conn) {
	ct.mu.Lock()
	delete(ct.conns, c)
	ct.mu.Unlock()
	ct.serving.Done()
}

// closeAll severs every live connection, refuses new ones and waits for
// the connections' read loops to return (handlers still running for them
// see their context cancelled and finish on their own).
func (ct *connTracker) closeAll() {
	ct.mu.Lock()
	ct.closed = true
	conns := make([]net.Conn, 0, len(ct.conns))
	for c := range ct.conns {
		conns = append(conns, c)
	}
	ct.conns = nil
	ct.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	ct.serving.Wait()
}

// serve runs the accept loop for a daemon, dispatching each connection to
// its own goroutine. serve returns when the listener closes; ct (optional)
// lets the daemon sever live connections on Close.
func serve(ln net.Listener, handle func(context.Context, *Request) Response, ct *connTracker) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if ct != nil && !ct.add(c) {
			c.Close()
			return
		}
		go serveConn(c, handle, ct)
	}
}

// serveConn demultiplexes one client connection: each request runs in its
// own goroutine (so a long OpExecute never head-of-line-blocks a ping
// sharing the socket) and responses are written back, tagged, as they
// complete. The per-connection context is cancelled when the client goes
// away, unblocking handlers still working for it. The handler context
// carries the deadline the request propagated from its client.
func serveConn(c net.Conn, handle func(context.Context, *Request) Response, ct *connTracker) {
	connCtx, connCancel := context.WithCancel(context.Background())
	defer func() {
		connCancel()
		if ct != nil {
			ct.remove(c)
		}
		c.Close()
	}()
	var wmu sync.Mutex
	// A read failure, a malformed frame or a request that does not decode
	// (protocol desync) all end the same way: drop the connection, and the
	// client's demux fails its in-flight calls with unavailable.
	_ = readFrames(c, func(payload []byte) bool {
		tag, rest, ok := peelTag(payload)
		if !ok {
			return false
		}
		req := reqPool.Get().(*Request)
		if derr := decodeRequestInto(rest, req); derr != nil {
			reqPool.Put(req)
			return false
		}
		go func(tag uint64, req *Request) {
			ctx := connCtx
			var cancel context.CancelFunc
			if req.Deadline > 0 {
				ctx, cancel = context.WithDeadline(ctx, time.Unix(0, req.Deadline))
			}
			resp := handle(ctx, req)
			if cancel != nil {
				cancel()
			}
			slab := getSlab()
			scratch := getSlab()
			buf := encodeResponseFrame((*slab)[:0], tag, &resp, scratch)
			putSlab(scratch)
			// Handlers copy anything they keep (the shard copies every
			// value it stores), so the request and its buffers recycle here.
			reqPool.Put(req)
			wmu.Lock()
			_, werr := c.Write(buf)
			wmu.Unlock()
			*slab = buf
			putSlab(slab)
			if werr != nil {
				c.Close() // wake the read loop; the conn is done
			}
		}(tag, req)
		return true
	}, nil)
}
