package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/mquery"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/topology"
)

// pickBy is a routing strategy for tests that choose a query's processor:
// it routes by whatever the function reads off the query, modulo the slots.
type pickBy func(query.Query) int

func (f pickBy) Name() string                        { return "test-pick" }
func (f pickBy) Pick(q query.Query, loads []int) int { return f(q) % len(loads) }
func (f pickBy) Observe(query.Query, int)            {}
func (f pickBy) DecisionUnits() int                  { return 1 }

var (
	byID   router.Strategy = pickBy(func(q query.Query) int { return q.ID })
	byNode router.Strategy = pickBy(func(q query.Query) int { return int(q.Node) })
)

// stubFrame is what a stubProc saw of one OpExecute or OpEvict frame: id is
// the first query's ID or the first subtask's anchor; keys, values and
// version are the invalidations it carried.
type stubFrame struct {
	op      Op
	id      int
	keys    []uint64
	values  [][]byte
	version uint64
}

// stubProc is a scripted processor: it acks every frame — one zero Result
// per query, one Partial per subtask — and reports the execute and evict
// frames on frames as they arrive, before answering. A frame whose id is in
// held answers only once that channel is closed, one in failing answers a
// typed error, and a subtask whose anchor is in found reports its target
// reached.
type stubProc struct {
	ln net.Listener
	ct connTracker
	// frames holds every frame a test has not looked at yet; no test sends
	// more than a handful before reading them back.
	frames chan stubFrame
	done   chan struct{}

	mu      sync.Mutex
	held    map[int]chan struct{}
	failing map[int]bool
	found   map[int]bool
}

func startStubProc(t *testing.T) *stubProc {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubProc{
		ln: ln, frames: make(chan stubFrame, 64), done: make(chan struct{}),
		held: make(map[int]chan struct{}), failing: make(map[int]bool), found: make(map[int]bool),
	}
	t.Cleanup(s.close)
	go serve(ln, s.handle, &s.ct)
	return s
}

// close severs the stub like a killed daemon; handlers still holding a
// reply are let go first.
func (s *stubProc) close() {
	select {
	case <-s.done:
		return
	default:
	}
	close(s.done)
	s.ln.Close()
	s.ct.closeAll()
}

func (s *stubProc) addr() string { return s.ln.Addr().String() }

// hold makes frames with this id wait; the returned func releases them.
func (s *stubProc) hold(id int) (release func()) {
	gate := make(chan struct{})
	s.mu.Lock()
	s.held[id] = gate
	s.mu.Unlock()
	return func() { close(gate) }
}

// fail makes frames with this id answer the typed error.
func (s *stubProc) fail(id int) {
	s.mu.Lock()
	s.failing[id] = true
	s.mu.Unlock()
}

// find makes subtasks from this anchor report their target reached.
func (s *stubProc) find(anchor int) {
	s.mu.Lock()
	s.found[anchor] = true
	s.mu.Unlock()
}

func (s *stubProc) handle(_ context.Context, req *Request) Response {
	if req.Op != OpExecute && req.Op != OpEvict {
		return Response{OK: true}
	}
	f := stubFrame{op: req.Op, id: -1, keys: slices.Clone(req.Keys), version: req.Version}
	for _, v := range req.Values {
		f.values = append(f.values, slices.Clone(v))
	}
	resp := Response{OK: true}
	s.mu.Lock()
	if ex := req.Exec; ex != nil && len(ex.Queries) > 0 {
		f.id = ex.Queries[0].ID
		resp.Results = make([]query.Result, len(ex.Queries))
	} else if ex != nil && len(ex.Subtasks) > 0 {
		f.id = int(ex.Subtasks[0].Anchor)
		for _, st := range ex.Subtasks {
			resp.Partials = append(resp.Partials, mquery.Partial{Kind: st.Kind, Anchor: st.Anchor, Found: s.found[int(st.Anchor)]})
		}
	}
	gate, fail := s.held[f.id], s.failing[f.id]
	s.mu.Unlock()
	s.frames <- f
	if gate != nil {
		select {
		case <-gate:
		case <-s.done:
		}
	}
	if fail {
		return errorResponse(fmt.Errorf("%w: scripted failure", query.ErrUnavailable))
	}
	return resp
}

// next returns the next frame the stub received, in arrival order.
func (s *stubProc) next(t *testing.T) stubFrame {
	t.Helper()
	select {
	case f := <-s.frames:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("the stub processor received no frame")
		return stubFrame{}
	}
}

// idle fails the test if the stub holds a frame nobody asked about.
func (s *stubProc) idle(t *testing.T, when string) {
	t.Helper()
	select {
	case f := <-s.frames:
		t.Fatalf("%s: unexpected %v frame (id %d, keys %v) at the processor", when, f.op, f.id, f.keys)
	default:
	}
}

// policyByID is byID in the strategy registry, so a loopback deployment can
// route by it.
var policyByID = func() core.Policy {
	id, err := router.Register("test-by-id", router.PrepNone, func(router.Resources) (router.Strategy, error) { return byID, nil })
	if err != nil {
		panic(err)
	}
	return core.Policy(id)
}()

// writableCluster is a deployment whose router can mutate: two unreplicated
// shards loaded with a small web graph, a router holding them, and its
// processors.
type writableCluster struct {
	g            *graph.Graph
	storageAddrs []string
	rs           *RouterServer
	cl           *RouterClient
}

// writableGraph generates the cluster's dataset; a second call is an
// independent copy for a test to keep as its oracle.
func writableGraph() *graph.Graph { return gen.LocalWeb(600, 6, 40, 0.01, 5) }

// startStubCluster is a writableCluster over n stub processors: the stubs
// record frames and are no deployment, so the router is started by hand.
func startStubCluster(t *testing.T, n int, strat router.Strategy) (*writableCluster, []*stubProc) {
	t.Helper()
	ctx := context.Background()
	stubs := make([]*stubProc, n)
	addrs := make([]string, n)
	for i := range stubs {
		stubs[i] = startStubProc(t)
		addrs[i] = stubs[i].addr()
	}
	c := &writableCluster{g: writableGraph()}
	_, c.storageAddrs = startStorageShards(t, 2)
	loader, err := DialStorageReplicated(c.storageAddrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.LoadGraph(ctx, c.g); err != nil {
		t.Fatal(err)
	}
	loader.Close()
	c.rs, err = newRouterServer("127.0.0.1:0", RouterConfig{Processors: addrs, Storage: c.storageAddrs}, strat, router.Coords{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.rs.Close() })
	c.cl, err = DialRouter(ctx, c.rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.cl.Close() })
	return c, stubs
}

// freshEdge returns the i-th node pair (2i+2, 2i+3) checked to have no edge
// in g, so distinct i give mutations over distinct records.
func freshEdge(t *testing.T, g *graph.Graph, i int) (u, v graph.NodeID) {
	t.Helper()
	u, v = graph.NodeID(2*i+2), graph.NodeID(2*i+3)
	if !g.Exists(u) || !g.Exists(v) || g.HasEdge(u, v) {
		t.Fatalf("test graph cannot take the edge %d->%d", u, v)
	}
	return u, v
}

// addEdge acks one AddEdge through the router and returns the keys it
// rewrote, in the order the router queues them.
func (c *writableCluster) addEdge(t *testing.T, i int) []uint64 {
	t.Helper()
	u, v := freshEdge(t, c.g, i)
	if _, err := c.cl.Mutate(context.Background(), []query.Mutation{{Op: query.MutAddEdge, Node: u, To: v}}); err != nil {
		t.Fatal(err)
	}
	return []uint64{uint64(u), uint64(v)}
}

// run sends one point query through the router.
func (c *writableCluster) run(t *testing.T, id int, node graph.NodeID) {
	t.Helper()
	q := query.Query{ID: id, Type: query.NeighborAgg, Node: node, Hops: 1, Dir: graph.Out}
	if _, err := c.cl.Execute(context.Background(), q); err != nil {
		t.Fatalf("query %d: %v", id, err)
	}
}

// wantBacklog checks one slot's invalidation queue on the router.
func (c *writableCluster) wantBacklog(t *testing.T, when string, slot, pending int, delivered int64) {
	t.Helper()
	c.rs.mu.Lock()
	q := c.rs.inval[slot]
	c.rs.mu.Unlock()
	if len(q.keys) != pending || q.delivered != delivered {
		t.Fatalf("%s: slot %d has %d invalidations pending, %d delivered; want %d, %d", when, slot, len(q.keys), q.delivered, pending, delivered)
	}
}

// TestInvalidationsRideExecuteFrames: an edge whose two records are warmed
// into all three processors' caches is removed; the mutation itself sends no
// processor a frame, and the one query then routed to each processor is the
// only frame that processor sees — no OpEvict — yet answers from the new
// records without a single cache miss: the frame's edits updated the cached
// copies in place.
func TestInvalidationsRideExecuteFrames(t *testing.T) {
	ctx := context.Background()
	c := &writableCluster{g: writableGraph()}
	d, cl := startLoopback(t, c.g, core.Config{StorageServers: 2, Processors: 3, CacheBytes: 1 << 20, Policy: policyByID})
	c.rs, c.cl = d.router, cl
	procs := d.procs

	oracle := writableGraph()
	u := graph.NodeID(2)
	if len(c.g.OutEdges(u)) == 0 {
		t.Fatalf("test graph has no out-edge of %d", u)
	}
	v := c.g.OutEdges(u)[0].To // u's ball holds v's record too
	onU := func(proc int) []query.Query {
		return []query.Query{{ID: proc, Type: query.NeighborAgg, Node: u, Hops: 1, Dir: graph.Out}}
	}
	for proc := range procs {
		checkOracle(t, cl, oracle, onU(proc), "warming")
	}
	var before [3]Stats
	for i, ps := range procs {
		before[i] = ps.Stats()
		if before[i].Executed != 1 || before[i].Cache.Misses == 0 {
			t.Fatalf("processor %d not warmed by exactly its own query: %+v", i, before[i])
		}
	}

	if _, err := cl.Mutate(ctx, []query.Mutation{{Op: query.MutRemoveEdge, Node: u, To: v}}); err != nil {
		t.Fatal(err)
	}
	if !oracle.RemoveEdge(u, v) {
		t.Fatalf("oracle has no edge %d->%d", u, v)
	}
	for i, ps := range procs {
		if got := ps.Stats().Requests; got != before[i].Requests {
			t.Fatalf("the mutation sent processor %d %d frames, want none", i, got-before[i].Requests)
		}
		c.wantBacklog(t, "after the ack", i, 2, 0)
	}

	for proc := range procs {
		checkOracle(t, cl, oracle, onU(proc), "after the mutation")
	}
	for i, ps := range procs {
		after := ps.Stats()
		if after.Requests != before[i].Requests+1 {
			t.Fatalf("processor %d saw %d frames since the mutation, want exactly its one query", i, after.Requests-before[i].Requests)
		}
		if after.Cache.Misses != before[i].Cache.Misses {
			t.Fatalf("processor %d missed %d records after the mutation, want none: the rewritten records were dropped, not updated", i, after.Cache.Misses-before[i].Cache.Misses)
		}
		c.wantBacklog(t, "after the queries", i, 0, 2)
	}
}

// TestNothingToWriteEvicts: the repeat of an acked AddEdge has nothing to
// write, yet queues its touched keys on every live slot with empty edits —
// evictions — and the next execute frame to each slot carries them. It is
// what restores read-your-writes when the first attempt's write landed under
// a router that died before delivering its invalidations.
func TestNothingToWriteEvicts(t *testing.T) {
	c, stubs := startStubCluster(t, 3, byID)
	keys := c.addEdge(t, 0)
	for slot, stub := range stubs {
		c.run(t, slot, 10)
		if f := stub.next(t); !slices.Equal(f.keys, keys) || len(f.values) != len(keys) || len(f.values[0]) == 0 {
			t.Fatalf("slot %d: frame after the add carried %v with edits %x, want %v with edits", slot, f.keys, f.values, keys)
		}
	}

	if again := c.addEdge(t, 0); !slices.Equal(again, keys) {
		t.Fatalf("the repeat touched %v, want %v", again, keys)
	}
	for slot, stub := range stubs {
		stub.idle(t, "after the repeat")
		c.wantBacklog(t, "after the repeat", slot, len(keys), int64(len(keys)))
	}
	for slot, stub := range stubs {
		c.run(t, slot, 10)
		f := stub.next(t)
		if !slices.Equal(f.keys, keys) || len(f.values) != len(keys) || slices.ContainsFunc(f.values, func(e []byte) bool { return len(e) > 0 }) {
			t.Fatalf("slot %d: frame after the repeat carried %v with edits %x, want %v as evictions", slot, f.keys, f.values, keys)
		}
	}
}

// TestInvalidationsRetireBySequence: with two frames to one slot in flight
// and the first answer withheld, the second still carries the backlog, and
// only the answer to a frame that carried a key retires it — the late answer
// to the first frame retires nothing that was queued after it left.
func TestInvalidationsRetireBySequence(t *testing.T) {
	c, stubs := startStubCluster(t, 1, byID)
	stub := stubs[0]
	first := c.addEdge(t, 0)
	stub.idle(t, "after the mutation")
	c.wantBacklog(t, "after the mutation", 0, 2, 0)

	release := stub.hold(1)
	withheld := make(chan struct{})
	go func() {
		defer close(withheld)
		c.run(t, 1, 10)
	}()
	if f := stub.next(t); f.id != 1 || !slices.Equal(f.keys, first) {
		t.Fatalf("first frame = %+v, want query 1 carrying %v", f, first)
	}
	c.wantBacklog(t, "first frame unanswered", 0, 2, 0)

	c.run(t, 2, 10)
	if f := stub.next(t); f.id != 2 || !slices.Equal(f.keys, first) {
		t.Fatalf("second frame = %+v, want query 2 still carrying %v", f, first)
	}
	c.wantBacklog(t, "second frame answered", 0, 0, 2)

	second := c.addEdge(t, 1)
	release()
	<-withheld
	c.wantBacklog(t, "late answer to the first frame", 0, 2, 2)

	c.run(t, 3, 10)
	if f := stub.next(t); !slices.Equal(f.keys, second) {
		t.Fatalf("third frame carried %v, want %v", f.keys, second)
	}
	c.wantBacklog(t, "third frame answered", 0, 0, 4)
	c.run(t, 4, 10)
	if f := stub.next(t); len(f.keys) != 0 {
		t.Fatalf("frame behind an empty backlog carried %v", f.keys)
	}
}

// TestOvertakenFrameEvicts: two frames a router sent one processor — the
// first carrying an edge's addition, the second that and the edge's removal
// — reach a real processor newest first. The newer applies both edits; the
// older, applied last, must evict rather than edit — re-adding the edge to
// the cached record would serve a removed edge — so the frame's own query
// and the next read return storage's record. The frames are captured from a
// stub processor, so they are byte for byte what the router sends.
func TestOvertakenFrameEvicts(t *testing.T) {
	ctx := context.Background()
	c, stubs := startStubCluster(t, 1, byID)
	stub := stubs[0]
	oracle := writableGraph()
	u, v := freshEdge(t, c.g, 0)
	ps, err := NewProcessorServerWith("127.0.0.1:0", ProcessorConfig{Storage: c.storageAddrs, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	onU := query.Query{ID: 1, Type: query.NeighborAgg, Node: u, Hops: 1, Dir: graph.Out}
	replay := func(f stubFrame, when string) Stats {
		t.Helper()
		resp := ps.handle(ctx, &Request{Op: OpExecute, Keys: f.keys, Values: f.values, Version: f.version, Exec: &ExecRequest{Queries: []query.Query{onU}}})
		if want := query.Answer(oracle, onU); !resp.OK || len(resp.Results) != 1 || resp.Results[0] != want {
			t.Fatalf("%s: %+v, want %+v", when, resp, want)
		}
		return ps.Stats()
	}
	warm := replay(stubFrame{}, "warming")

	c.addEdge(t, 0)
	release := stub.hold(1)
	withheld := make(chan struct{})
	go func() {
		defer close(withheld)
		c.run(t, 1, 10)
	}()
	older := stub.next(t)
	if _, err := c.cl.Mutate(ctx, []query.Mutation{{Op: query.MutRemoveEdge, Node: u, To: v}}); err != nil {
		t.Fatal(err)
	}
	c.run(t, 2, 10)
	newer := stub.next(t)
	release()
	<-withheld
	if len(older.keys) != 2 || len(newer.keys) != 4 || len(newer.values) != 4 || older.version >= newer.version {
		t.Fatalf("frames carried %d then %d keys, versions %d then %d; want the older's 2 inside the newer's 4",
			len(older.keys), len(newer.keys), older.version, newer.version)
	}
	val, err := gstore.EditValue(u, gstore.Encode(nil, &gstore.Record{Node: u}), older.values[0])
	ed, derr := gstore.Decode(u, val)
	if err != nil || derr != nil || len(ed.Out) != 1 {
		t.Fatalf("the older frame's edit of %d = %+v, %v, %v; want it to add the edge", u, ed, err, derr)
	}

	st := replay(newer, "newer frame first")
	if st.Cache.Misses != warm.Cache.Misses {
		t.Fatalf("the newer frame's edits cost %d misses, want none", st.Cache.Misses-warm.Cache.Misses)
	}
	if st = replay(older, "older frame last"); st.Cache.Misses == warm.Cache.Misses {
		t.Fatal("the overtaken frame's query missed nothing: its keys were not evicted")
	}
	replay(stubFrame{}, "next read")
}

// TestUnansweredFrameRetiresNothing: a frame that is answered with an error,
// and one whose call the router itself cancels (the losing side of a
// BoundedReach wave), leave the backlog queued, and the next frame to the
// slot sends it again.
func TestUnansweredFrameRetiresNothing(t *testing.T) {
	c, stubs := startStubCluster(t, 2, byNode)
	keys := c.addEdge(t, 0)

	stubs[0].fail(7)
	q := query.Query{ID: 7, Type: query.NeighborAgg, Node: 10, Hops: 1, Dir: graph.Out}
	if _, err := c.cl.Execute(context.Background(), q); !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("scripted failure: err = %v, want ErrUnavailable", err)
	}
	if f := stubs[0].next(t); !slices.Equal(f.keys, keys) {
		t.Fatalf("failing frame carried %v, want %v", f.keys, keys)
	}
	c.wantBacklog(t, "after the failed frame", 0, 2, 0)
	c.run(t, 8, 10)
	if f := stubs[0].next(t); !slices.Equal(f.keys, keys) {
		t.Fatalf("frame after the failed one carried %v, want %v again", f.keys, keys)
	}
	c.wantBacklog(t, "after the answered frame", 0, 0, 2)

	// Anchor 4 lands on slot 0 and finds the target — once slot 1 has its
	// frame; anchor 9 lands on slot 1, which never answers: the router cancels
	// that call mid-stream.
	stubs[0].find(4)
	found := stubs[0].hold(4)
	never := stubs[1].hold(9)
	defer never()
	type outcome struct {
		res query.Result
		err error
	}
	reached := make(chan outcome, 1)
	go func() {
		reach := query.Query{ID: 9, Type: query.BoundedReach, Node: 4, Anchors: []graph.NodeID{4, 9}, Target: 500, Hops: 3, VisitBudget: 8, Dir: graph.Out}
		res, err := c.cl.Execute(context.Background(), reach)
		reached <- outcome{res, err}
	}()
	if f := stubs[1].next(t); f.id != 9 || !slices.Equal(f.keys, keys) {
		t.Fatalf("wave frame to slot 1 = %+v, want anchor 9 carrying %v", f, keys)
	}
	stubs[0].next(t)
	found()
	if o := <-reached; o.err != nil || !o.res.Reachable {
		t.Fatalf("bounded reach over the stubs = %+v, %v; want reachable", o.res, o.err)
	}
	c.wantBacklog(t, "after the cancelled wave", 1, 2, 0)
	c.run(t, 10, 11)
	if f := stubs[1].next(t); !slices.Equal(f.keys, keys) {
		t.Fatalf("frame after the cancelled one carried %v, want %v again", f.keys, keys)
	}
	c.wantBacklog(t, "slot 1 answered", 1, 0, 2)
}

// TestInvalidationQueuesFollowMembership: a draining slot is still queued
// for, a slot that leaves drops its queue, and a joiner starts empty and is
// queued for from then on.
func TestInvalidationQueuesFollowMembership(t *testing.T) {
	ctx := context.Background()
	c, stubs := startStubCluster(t, 2, byNode)
	release := stubs[1].hold(1)
	inFlight := make(chan struct{})
	go func() {
		defer close(inFlight)
		c.run(t, 1, 11)
	}()
	stubs[1].next(t)
	cn, err := dial(c.rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if _, err := cn.Call(ctx, &Request{Op: OpDrain, Proc: 1}); err != nil {
		t.Fatal(err)
	}
	if st := c.rs.View().Status(1); st != topology.Draining {
		t.Fatalf("slot 1 with a query in flight is %v after the drain, want draining", st)
	}
	c.addEdge(t, 0)
	c.wantBacklog(t, "while draining", 0, 2, 0)
	c.wantBacklog(t, "while draining", 1, 2, 0)

	release()
	<-inFlight
	if st := c.rs.View().Status(1); st != topology.Left {
		t.Fatalf("slot 1 is %v after its last query finished, want left", st)
	}
	c.wantBacklog(t, "after leaving", 1, 0, 0)

	joiner := startStubProc(t)
	resp, err := cn.Call(ctx, &Request{Op: OpJoin, Addr: joiner.addr()})
	if err != nil || resp.Proc != 2 {
		t.Fatalf("join = slot %d, %v; want slot 2", resp.Proc, err)
	}
	c.wantBacklog(t, "joiner", 2, 0, 0)
	keys := c.addEdge(t, 1)
	c.wantBacklog(t, "second mutation", 0, 4, 0)
	c.wantBacklog(t, "second mutation", 1, 0, 0)
	c.wantBacklog(t, "second mutation", 2, 2, 0)
	c.run(t, 2, 11) // 11 mod 3 slots
	if f := joiner.next(t); !slices.Equal(f.keys, keys) {
		t.Fatalf("joiner's first frame carried %v, want only %v", f.keys, keys)
	}
}

// TestBacklogBoundFlushesWithOneEvict: a slot nothing is routed to takes
// exactly one explicit OpEvict — its whole backlog, in order — from the first
// mutation that finds it past maxBacklog; and once that processor is gone
// the mutation fails unacked with the typed error, before writing anything.
func TestBacklogBoundFlushesWithOneEvict(t *testing.T) {
	ctx := context.Background()
	c, stubs := startStubCluster(t, 1, byID)
	stub := stubs[0]
	u, v := freshEdge(t, c.g, 0)
	// toggle acks n more mutations of one edge, adds and removes in turn.
	done := 0
	toggle := func(n int) {
		t.Helper()
		muts := make([]query.Mutation, n)
		for i := range muts {
			muts[i] = query.Mutation{Op: query.MutAddEdge, Node: u, To: v}
			if (done+i)%2 == 1 {
				muts[i].Op = query.MutRemoveEdge
			}
		}
		if applied, err := c.cl.Mutate(ctx, muts); err != nil || applied != n {
			t.Fatalf("applied %d of %d toggles: %v", applied, n, err)
		}
		done += n
	}
	toggle(maxBacklog / 2)
	c.wantBacklog(t, "at the bound", 0, maxBacklog, 0)
	toggle(1)
	stub.idle(t, "at the bound, and on the mutation that passes it")
	c.wantBacklog(t, "past the bound", 0, maxBacklog+2, 0)

	toggle(1)
	f := stub.next(t)
	if f.op != OpEvict || len(f.keys) != maxBacklog+2 || f.keys[0] != uint64(u) || f.keys[1] != uint64(v) {
		t.Fatalf("flush frame = %v with %d keys, want one OpEvict with the %d queued", f.op, len(f.keys), maxBacklog+2)
	}
	stub.idle(t, "after the flush")
	c.wantBacklog(t, "after the flush", 0, 2, maxBacklog+2)

	toggle(maxBacklog / 2)
	stub.idle(t, "refilling")
	stub.close()
	stored := func() []byte {
		val, _ := storedAt(t, c.storageAddrs[c.rs.storage.shardFor(uint64(u))], uint64(u))
		return val
	}
	pre := stored()
	applied, err := c.cl.Mutate(ctx, []query.Mutation{{Op: query.MutAddEdge, Node: u, To: v}}) // done is even: the edge is absent
	if applied != 0 || !errors.Is(err, query.ErrUnavailable) || !strings.Contains(err.Error(), "cache eviction") {
		t.Fatalf("mutation past the bound with the processor gone: applied %d, err %v; want the typed cache-eviction failure", applied, err)
	}
	if !bytes.Equal(stored(), pre) {
		t.Fatal("the unacked mutation rewrote its record")
	}
	c.wantBacklog(t, "after the failed flush", 0, maxBacklog+2, maxBacklog+2)
}

// TestPreImageReadFailsOver: with the preferred replica of an endpoint dead,
// the mutation's one read round still returns both pre-images from the
// survivor and marks the dead shard down; a missing endpoint is still the
// typed conflict.
func TestPreImageReadFailsOver(t *testing.T) {
	ctx := context.Background()
	g := gen.LocalWeb(300, 6, 40, 0.01, 5)
	shards, storageAddrs := startStorageShards(t, 2)
	loader, err := DialStorageReplicated(storageAddrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	loader.Close()
	rs, err := NewRouterServer("127.0.0.1:0", RouterConfig{
		Processors: []string{startStubProc(t).addr()}, Storage: storageAddrs, StorageReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	u, v := freshEdge(t, g, 0)
	dead := rs.storage.shardFor(uint64(u))
	shards[dead].Close()
	ids, raw := []graph.NodeID{u, v}, make([][]byte, 2)
	if err := (routerEnv{r: rs, ctx: ctx}).Read(ids, raw); err != nil {
		t.Fatalf("pre-image read with shard %d dead: %v", dead, err)
	}
	for i, id := range ids {
		want := gstore.Encode(nil, gstore.RecordOf(g, id))
		rec, err := gstore.Decode(id, raw[i])
		if raw[i] == nil || !bytes.Equal(raw[i], want) || err != nil || !bytes.Equal(gstore.Encode(nil, &rec), want) {
			t.Fatalf("endpoint %d did not come back as loaded", id)
		}
	}
	if !rs.storage.down[dead].Load() || rs.storage.down[1-dead].Load() || rs.storage.Failovers() != 1 {
		t.Fatalf("down = %v %v, %d failovers; want only shard %d down, once",
			rs.storage.down[0].Load(), rs.storage.down[1].Load(), rs.storage.Failovers(), dead)
	}
	if resp := rs.mutate(ctx, []query.Mutation{{Op: query.MutAddEdge, Node: u, To: 1 << 30}}); resp.Code != CodeConflict {
		t.Fatalf("edge to a missing endpoint: %+v, want the typed conflict", resp)
	}
}
