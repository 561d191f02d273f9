package rpc

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mquery"
	"repro/internal/query"
)

// startLoopback starts cfg's loopback deployment over g and dials a client
// to its router; both close with the test.
func startLoopback(t *testing.T, g *graph.Graph, cfg core.Config) (*Deployment, *RouterClient) {
	t.Helper()
	d, err := Loopback(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	cl, err := DialRouter(context.Background(), d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return d, cl
}

// dial connects one Conn to a daemon, as a Pool would.
func dial(addr string) (*Conn, error) {
	return DialContext(context.Background(), addr)
}

func TestStorageGetPut(t *testing.T) {
	ctx := context.Background()
	ss, err := NewStorageServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	cn, err := dial(ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if _, err := cn.Call(ctx, &Request{Op: OpMultiPut, Keys: []uint64{7}, Values: [][]byte{[]byte("v7")}}); err != nil {
		t.Fatal(err)
	}
	resp, err := cn.Call(ctx, &Request{Op: OpMultiGet, Keys: []uint64{7}})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%q %v", resp.Values, resp.Founds); got != `["v7"] [true]` {
		t.Fatalf("get = %s", got)
	}
	resp, err = cn.Call(ctx, &Request{Op: OpMultiGet, Keys: []uint64{8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Founds) != 1 || resp.Founds[0] {
		t.Fatalf("missing key: founds = %v", resp.Founds)
	}
	// A batch overwrites and creates in one frame; a batch whose values do
	// not line up with its keys, or that names none, is refused whole with
	// the typed error — never indexed — and the connection carries on.
	if _, err := cn.Call(ctx, &Request{Op: OpMultiPut, Keys: []uint64{7, 9}, Values: [][]byte{[]byte("v7b"), []byte("v9")}}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*Request{
		{Op: OpMultiPut},
		{Op: OpMultiPut, Keys: []uint64{7, 10}, Values: [][]byte{[]byte("short")}},
		{Op: OpMultiPut, Keys: []uint64{10}, Values: [][]byte{[]byte("a"), []byte("b")}},
		{Op: OpMultiPut, Values: [][]byte{[]byte("keyless")}},
		{Op: OpDrop},
	} {
		if _, err := cn.Call(ctx, bad); !errors.Is(err, query.ErrBadQuery) {
			t.Fatalf("%s of %d keys, %d values: err = %v, want ErrBadQuery", bad.Op, len(bad.Keys), len(bad.Values), err)
		}
	}
	resp, err = cn.Call(ctx, &Request{Op: OpMultiGet, Keys: []uint64{7, 9, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%q %v", resp.Values, resp.Founds); got != `["v7b" "v9" ""] [true true false]` {
		t.Fatalf("multiget after the batches = %s", got)
	}
	resp, err = cn.Call(ctx, &Request{Op: OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil || resp.Stats.Role != "storage" || resp.Stats.Storage.Keys != 2 {
		t.Fatalf("stats = %+v", resp.Stats)
	}
}

func TestStorageUnknownOp(t *testing.T) {
	ss, err := NewStorageServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	cn, err := dial(ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	// 2 and 4 are the retired single-key get and put.
	for _, op := range []Op{99, 2, 4} {
		if _, err := cn.Call(context.Background(), &Request{Op: op, Keys: []uint64{7}}); err == nil {
			t.Fatalf("bogus %s accepted", op)
		}
	}
}

// TestRetiredPlacementOpsRefused holds a processor and a router to an error
// for ops 11, 12 and 13 — the retired heat drain, migration cycle and pin
// push — as TestStorageUnknownOp holds a shard to one for ops 2 and 4.
func TestRetiredPlacementOpsRefused(t *testing.T) {
	g := gen.LocalWeb(200, 4, 10, 0.01, 3)
	d, _ := startLoopback(t, g, core.Config{StorageServers: 1, Processors: 1, Policy: core.PolicyHash})
	for _, addr := range []string{d.procs[0].Addr(), d.Addr()} {
		cn, err := dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []Op{11, 12, 13} {
			if op.String() != fmt.Sprintf("op(%d)", op) {
				t.Errorf("retired op %d still has a name, %q", op, op)
			}
			if _, err := cn.Call(context.Background(), &Request{Op: op}); err == nil {
				t.Errorf("%s accepted retired %s", addr, op)
			}
		}
		cn.Close()
	}
}

// TestClusterMatchesOracle runs a mixed workload through a real localhost
// deployment and checks every result against the in-memory oracle.
func TestClusterMatchesOracle(t *testing.T) {
	g := gen.LocalWeb(1500, 8, 60, 0.01, 5)
	_, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 3, Policy: core.PolicyHash})
	qs := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots: 8, QueriesPerHotspot: 5, R: 2, H: 2, Seed: 9,
	})
	ctx := context.Background()
	for _, q := range qs {
		got, err := cl.Execute(ctx, q)
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		if want := query.Answer(g, q); got != want {
			t.Fatalf("query %d (%v on %d): got %+v, want %+v", q.ID, q.Type, q.Node, got, want)
		}
	}
}

// TestClusterBatchMatchesOracle sends the whole workload as one batch and
// checks positional alignment with the oracle.
func TestClusterBatchMatchesOracle(t *testing.T) {
	g := gen.LocalWeb(1200, 8, 60, 0.01, 4)
	_, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 3, Policy: core.PolicyHash})
	qs := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots: 6, QueriesPerHotspot: 5, R: 2, H: 2, Seed: 11,
	})
	results, err := cl.ExecuteBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(results), len(qs))
	}
	for i, q := range qs {
		if want := query.Answer(g, q); results[i] != want {
			t.Fatalf("batch query %d: got %+v, want %+v", i, results[i], want)
		}
	}
}

func TestClusterSmartPolicies(t *testing.T) {
	g := gen.LocalWeb(1200, 8, 60, 0.01, 6)
	for _, policy := range []core.Policy{core.PolicyLandmark, core.PolicyEmbed, core.PolicyNextReady} {
		_, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 2, Policy: policy})
		q := query.Query{ID: 0, Type: query.NeighborAgg, Node: 100, Hops: 2, Dir: graph.Out}
		got, err := cl.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if want := query.Answer(g, q); got != want {
			t.Fatalf("%s: got %+v, want %+v", policy, got, want)
		}
	}
}

func TestClusterConcurrentClients(t *testing.T) {
	g := gen.LocalWeb(1000, 6, 50, 0.01, 8)
	_, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 3, Policy: core.PolicyNextReady})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				node := graph.NodeID((w*37 + i*11) % 1000)
				q := query.Query{Type: query.NeighborAgg, Node: node, Hops: 1, Dir: graph.Out}
				got, err := cl.Execute(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				if want := query.Answer(g, q); got != want {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClusterTypedErrors checks that the typed sentinels survive the trip
// over the wire.
func TestClusterTypedErrors(t *testing.T) {
	g := gen.LocalWeb(800, 6, 50, 0.01, 2)
	_, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 2, Policy: core.PolicyNextReady})
	ctx := context.Background()

	// Malformed query: rejected client-side and (if forced through) by the
	// router with the same sentinel.
	bad := query.Query{Type: query.NeighborAgg, Node: 1, Hops: -1, Dir: graph.Out}
	if _, err := cl.Execute(ctx, bad); !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("bad query error = %v, want ErrBadQuery", err)
	}
	resp, err := cl.pool.Call(ctx, execRequest([]query.Query{bad}))
	if err == nil || !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("router-side bad query error = %v (resp %+v), want ErrBadQuery", err, resp)
	}

	// Unknown node: no record in the storage tier.
	unknown := query.Query{Type: query.NeighborAgg, Node: 1 << 30, Hops: 1, Dir: graph.Out}
	if _, err := cl.Execute(ctx, unknown); !errors.Is(err, query.ErrUnknownNode) {
		t.Fatalf("unknown node error = %v, want ErrUnknownNode", err)
	}

	// Unavailable: dialing a closed port.
	if _, err := DialRouter(context.Background(), "127.0.0.1:1"); !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("dial error = %v, want ErrUnavailable", err)
	}
}

// TestCallCancellation checks that a cancelled context unblocks an
// in-flight call and that an expired deadline fails fast.
func TestCallCancellation(t *testing.T) {
	g := gen.LocalWeb(600, 6, 50, 0.01, 3)
	_, cl := startLoopback(t, g, core.Config{StorageServers: 1, Processors: 1, Policy: core.PolicyNextReady})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := query.Query{Type: query.NeighborAgg, Node: 10, Hops: 2, Dir: graph.Out}
	if _, err := cl.Execute(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execute error = %v, want context.Canceled", err)
	}

	// A deadline in the past must fail without hanging.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := cl.Execute(expired, q); err == nil {
		t.Fatal("expired deadline succeeded")
	}

	// The client remains usable afterwards (broken conns are discarded by
	// the pool).
	got, err := cl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.Answer(g, q); got != want {
		t.Fatalf("post-cancel result %+v, want %+v", got, want)
	}
}

// startProcessor starts a one-shard, one-processor deployment over g and
// returns its processor with a connection to it.
func startProcessor(t *testing.T, g *graph.Graph, cacheBytes int64) (*ProcessorServer, *Conn) {
	t.Helper()
	d, _ := startLoopback(t, g, core.Config{StorageServers: 1, Processors: 1, CacheBytes: cacheBytes, Policy: core.PolicyHash})
	ps := d.procs[0]
	cn, err := dial(ps.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cn.Close() })
	return ps, cn
}

func TestProcessorCacheWarms(t *testing.T) {
	ctx := context.Background()
	_, cn := startProcessor(t, gen.Ring(100), 1<<20)
	q := query.Query{Type: query.NeighborAgg, Node: 5, Hops: 3, Dir: graph.Out}
	for i := 0; i < 2; i++ {
		if _, err := cn.Call(ctx, execRequest([]query.Query{q})); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := cn.Call(ctx, &Request{Op: OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil || resp.Stats.Cache.Hits == 0 {
		t.Fatalf("repeat query produced no cache hits: %+v", resp.Stats)
	}
	if resp.Stats.Executed != 2 {
		t.Fatalf("executed = %d", resp.Stats.Executed)
	}
}

// TestCancelledBatchStopsOnWarmProcessor: a batch whose caller has given
// up must stop even when every record it needs is a cache hit, so no
// storage call is left to notice the dead context.
func TestCancelledBatchStopsOnWarmProcessor(t *testing.T) {
	ctx := context.Background()
	ps, cn := startProcessor(t, gen.Ring(100), 1<<20)
	qs := make([]query.Query, 64)
	for i := range qs {
		qs[i] = query.Query{Type: query.NeighborAgg, Node: graph.NodeID(i), Hops: 3, Dir: graph.Out}
	}
	pass := func() Stats {
		if _, err := cn.Call(ctx, execRequest(qs)); err != nil {
			t.Fatal(err)
		}
		return ps.Stats()
	}
	cold, warm := pass(), pass()
	if warm.Cache.Misses != cold.Cache.Misses || warm.Executed != int64(2*len(qs)) {
		t.Fatalf("second pass not a full all-hit batch: %+v after %+v", warm, cold)
	}

	// A propagated deadline that has already passed, over the wire.
	req := execRequest(qs)
	req.Deadline = time.Now().Add(-time.Second).UnixNano()
	if _, err := cn.Call(ctx, req); !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("expired batch: err = %v, want ErrUnavailable", err)
	}
	// An already-cancelled context, handed straight to the handler.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if resp := ps.handle(cancelled, execRequest(qs)); resp.OK || resp.Code != CodeUnavailable {
		t.Fatalf("cancelled batch: response %+v, want CodeUnavailable", resp)
	}
	after := ps.Stats()
	if after.Executed != warm.Executed {
		t.Fatalf("dead batches still executed %d queries", after.Executed-warm.Executed)
	}
}

// TestProcessorExecutorsBounded: a burst larger than the executor set is
// all answered (requests queue for an executor, none is dropped) and every
// executor comes back; a request that cannot get one gives up with its
// deadline instead of waiting forever.
func TestProcessorExecutorsBounded(t *testing.T) {
	ctx := context.Background()
	g := gen.Ring(100)
	ps, cn := startProcessor(t, g, 1<<20)
	n := cap(ps.execs)
	var wg sync.WaitGroup
	for i := 0; i < 8*n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := query.Query{Type: query.NeighborAgg, Node: graph.NodeID(i % 100), Hops: 3, Dir: graph.Out}
			resp, err := cn.Call(ctx, execRequest([]query.Query{q}))
			if err != nil {
				t.Errorf("burst query %d: %v", i, err)
				return
			}
			if want := query.Answer(g, q); resp.Results[0] != want {
				t.Errorf("burst query %d: %+v, want %+v", i, resp.Results[0], want)
			}
		}(i)
	}
	wg.Wait()
	if len(ps.execs) != n {
		t.Fatalf("%d of %d executors free after the burst", len(ps.execs), n)
	}

	held := make([]*execState, n)
	for i := range held {
		held[i] = <-ps.execs
	}
	q := query.Query{Type: query.NeighborAgg, Node: 5, Hops: 3, Dir: graph.Out}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if resp := ps.handle(short, execRequest([]query.Query{q})); resp.OK || resp.Code != CodeUnavailable {
		t.Fatalf("request with no free executor: response %+v, want CodeUnavailable", resp)
	}
	for _, ex := range held {
		ps.execs <- ex
	}
	if _, err := cn.Call(ctx, execRequest([]query.Query{q})); err != nil {
		t.Fatalf("after the executors came back: %v", err)
	}
}

func TestRouterValidation(t *testing.T) {
	if _, err := NewRouterServer("127.0.0.1:0", RouterConfig{}); err == nil {
		t.Fatal("router with no processors accepted")
	}
	if _, _, err := BuildStrategyEmbed("bogus", gen.Ring(10), 2, 1, nil); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if _, err := DialStorageReplicated(nil, 1); err == nil {
		t.Fatal("empty storage list accepted")
	}
	if _, err := DialStorageReplicated([]string{"127.0.0.1:1"}, 1); err == nil {
		t.Fatal("unreachable storage accepted")
	}
}

// reqFrameSize binary-encodes req as a complete frame (length prefix, tag,
// header, payload) and returns the byte count — the number that actually
// crosses the wire per request. Unlike gob there is no first-message
// descriptor cost: every frame is steady-state.
func reqFrameSize(t *testing.T, req *Request) int {
	t.Helper()
	var scratch []byte
	buf := encodeRequestFrame(nil, 1, req, req.Deadline, &scratch)
	// The frame must decode back; a size test on garbage proves nothing.
	tag, rest, ok := peelTag(framePayload(buf))
	if !ok || tag != 1 {
		t.Fatalf("frame tag corrupt")
	}
	var got Request
	if err := decodeRequestInto(rest, &got); err != nil {
		t.Fatalf("frame does not decode: %v", err)
	}
	return len(buf)
}

// respFrameSize is reqFrameSize for responses.
func respFrameSize(t *testing.T, resp *Response) int {
	t.Helper()
	var scratch []byte
	buf := encodeResponseFrame(nil, 1, resp, &scratch)
	tag, rest, ok := peelTag(framePayload(buf))
	if !ok || tag != 1 {
		t.Fatalf("frame tag corrupt")
	}
	var got Response
	if err := decodeResponseInto(rest, &got); err != nil {
		t.Fatalf("frame does not decode: %v", err)
	}
	return len(buf)
}

// sevenProcStatsResponse is the OpStats reply of a router at the paper's
// 7-processor scale, every counter populated: the frame whose size
// TestEnvelopeEncodedSize bounds and whose bytes TestGoldenFrames pins.
func sevenProcStatsResponse() *Response {
	snap := &metrics.Snapshot{
		Transport:  "tcp",
		Policy:     "embed",
		Strategy:   "embed",
		Processors: 7,
		Epoch:      9,
		Queries:    123456,
		Stolen:     321,
		Diverted:   12,
		Reassigned: 17,
		Epochs: []metrics.EpochEvent{
			{Epoch: 8, Joined: 2},
			{Epoch: 9, Left: 1, Reassigned: 17},
		},
		RoutingNanos: metrics.Summary{
			Count: 123456, Mean: 850, P50: 800, P95: 2047, P99: 4095, Max: 90000,
		},
		QueueDepth: metrics.Summary{Count: 123456, Mean: 2, P50: 1, P95: 7, P99: 15, Max: 31},

		RoutingTableBytes: 60000 * 8 * 4,
		EmbedDimensions:   8,
		EmbedProvider:     "learned",
	}
	for i := 0; i < 7; i++ {
		cc := metrics.CacheCounters{
			Hits: 900000 + int64(i), Misses: 100000, Inserts: 100000,
			Evictions: 55000, CurrentBytes: 4 << 30, CapacityBytes: 4 << 30,
		}
		snap.PerProc = append(snap.PerProc, metrics.ProcCounters{
			Proc: i, Status: "active", Addr: "10.0.0.71:7101",
			Assigned: 17636, Executed: 17640, Stolen: 40, Diverted: 2,
			QueueDepth: 3, Cache: cc,
		})
		snap.Cache.Add(cc)
	}
	return &Response{OK: true, Stats: &Stats{Role: "router", Requests: 999999, Snapshot: snap}}
}

// TestEnvelopeEncodedSize is the wire-waste regression test: ops must not
// carry the payloads of other ops, and the binary framing must beat the
// gob ceilings it replaced (ping 16, get 32, mutate 64, evict 32, execute
// 128, subtask 96, pattern 160, partial 96, pong 16, stats request 16,
// 7-proc stats response 1024 — plus gob's ~960-byte first-message
// descriptor cost, which is now zero).
func TestEnvelopeEncodedSize(t *testing.T) {
	ping := &Request{Op: OpPing}
	if n := reqFrameSize(t, ping); n > 8 {
		t.Errorf("ping frame encodes to %d bytes, want <= 8", n)
	}
	get := &Request{Op: OpMultiGet, Keys: []uint64{123456789}}
	if n := reqFrameSize(t, get); n > 16 {
		t.Errorf("get frame encodes to %d bytes, want <= 16", n)
	}
	// OutOnly is a presence bit with no payload: past the bitmap's first
	// seven bits, it costs one bitmap byte and nothing else.
	outGet := &Request{Op: OpMultiGet, Keys: get.Keys, OutOnly: true}
	if n, plain := reqFrameSize(t, outGet), reqFrameSize(t, get); n > 16 || n != plain+1 {
		t.Errorf("out-only get frame encodes to %d bytes, the plain one to %d; want one more, <= 16", n, plain)
	}
	// Mutations: a single-op batch stays a small constant envelope, and an
	// unlabelled op never drags a label string along.
	mut := &Request{Op: OpMutate, Muts: []query.Mutation{{Op: query.MutAddEdge, Node: 42, To: 99}}}
	if n := reqFrameSize(t, mut); n > 24 {
		t.Errorf("1-op mutate frame encodes to %d bytes, want <= 24", n)
	}
	// An eviction carries only its keys.
	evict := &Request{Op: OpEvict, Keys: []uint64{7, 8}}
	if n := reqFrameSize(t, evict); n > 16 {
		t.Errorf("2-key evict frame encodes to %d bytes, want <= 16", n)
	}
	// One-query execute: the query payload plus envelope, nothing else.
	exec := execRequest([]query.Query{
		{ID: 1, Type: query.NeighborAgg, Node: 42, Hops: 2, Dir: graph.Out},
	})
	if n := reqFrameSize(t, exec); n > 48 {
		t.Errorf("1-query execute frame encodes to %d bytes, want <= 48", n)
	}
	// The frame the router forwards to a processor is that same frame, byte
	// for byte what it was before invalidations rode it, while none is queued
	// for its slot — a nil and an empty Keys leave no trace — and with two
	// keys riding it grows by their count byte and their varints (1 and 3
	// bytes here), nothing else.
	var scratch []byte
	bare := encodeRequestFrame(nil, 1, exec, 0, &scratch)
	if got := hex.EncodeToString(bare); got != "0c0105000801002a0400010200" {
		t.Errorf("bare execute frame = %s, not the frame the protocol sends", got)
	}
	exec.Keys = []uint64{}
	if empty := encodeRequestFrame(nil, 1, exec, 0, &scratch); !bytes.Equal(empty, bare) {
		t.Errorf("execute frame with an empty backlog = %x, want the bare frame %x", empty, bare)
	}
	exec.Keys = []uint64{42, 40000}
	if n := reqFrameSize(t, exec); n != len(bare)+1+1+3 {
		t.Errorf("execute frame carrying two invalidations encodes to %d bytes, want %d", n, len(bare)+1+1+3)
	}
	// Each point kind's execute request and its result, as the hotspot
	// generator draws them over a 60 k-node graph (three-byte node ids, a
	// 63-bit walk seed, a two-byte hotspot index): a query carries what its
	// kind reads and no field it leaves zero. The ceilings are the sizes
	// when queries and results became presence-coded and the length prefix
	// a uvarint: 46 B for each request before, and 15, 16 and 14 B for the
	// results.
	for _, pk := range []struct {
		q        query.Query
		r        query.Result
		req, res int
	}{
		{query.Query{ID: 4321, Type: query.NeighborAgg, Node: 54321, Hops: 2, Dir: graph.Out, Hotspot: 87},
			query.Result{Type: query.NeighborAgg, Count: 311}, 18, 9},
		{query.Query{ID: 4322, Type: query.RandomWalk, Node: 54321, Hops: 2, Dir: graph.Out, Hotspot: 87, RestartProb: 0.15, Seed: 1<<62 + 12345},
			query.Result{Type: query.RandomWalk, EndNode: 54329}, 36, 10},
		{query.Query{ID: 4323, Type: query.Reachability, Node: 54321, Target: 43210, Hops: 2, Dir: graph.Out, Hotspot: 87},
			query.Result{Type: query.Reachability, Reachable: true}, 21, 7},
	} {
		full := pk.q
		full.RestartProb, full.Seed, full.Target = 0.15, 1<<62+12345, 43210 // the generator sets them on every kind
		if n := reqFrameSize(t, execRequest([]query.Query{full})); n > pk.req {
			t.Errorf("1-%v execute frame encodes to %d bytes, want <= %d", pk.q.Type, n, pk.req)
		}
		if n := respFrameSize(t, &Response{OK: true, Results: []query.Result{pk.r}}); n > pk.res {
			t.Errorf("%v result frame encodes to %d bytes, want <= %d", pk.q.Type, n, pk.res)
		}
	}
	// A one-subtask wave dispatch: the varint-packed subtask plus envelope.
	subExec := &Request{Op: OpExecute, Exec: &ExecRequest{Subtasks: []mquery.Subtask{
		{Kind: mquery.KindReach, Anchor: 42, Target: 99, Hops: 2, Budget: 64},
	}}}
	if n := reqFrameSize(t, subExec); n > 32 {
		t.Errorf("1-subtask execute frame encodes to %d bytes, want <= 32", n)
	}
	// A pattern-match query rides its varint-packed template.
	patExec := execRequest([]query.Query{{
		ID: 1, Type: query.PatternMatch, Node: 42, Dir: graph.Out,
		Pattern: &query.Pattern{
			Nodes: []query.PatternNode{{Anchor: 42}, {Anchor: 97}, {}},
			Edges: []query.PatternEdge{{From: 0, To: 2}, {From: 1, To: 2}},
		},
	}})
	if n := reqFrameSize(t, patExec); n > 64 {
		t.Errorf("1-pattern execute frame encodes to %d bytes, want <= 64", n)
	}
	// A k-nearest query is the classic-traversal envelope plus one varint
	// for K; its single-subtask dispatch matches the reach ceiling.
	knnExec := execRequest([]query.Query{
		{ID: 1, Type: query.KNearest, Node: 42, Hops: 2, K: 8, Dir: graph.Both},
	})
	if n := reqFrameSize(t, knnExec); n > 48 {
		t.Errorf("1-knn execute frame encodes to %d bytes, want <= 48", n)
	}
	knnSub := &Request{Op: OpExecute, Exec: &ExecRequest{Subtasks: []mquery.Subtask{
		{Kind: mquery.KindKNN, Anchor: 42, Radius: 2},
	}}}
	if n := reqFrameSize(t, knnSub); n > 32 {
		t.Errorf("1-knn-subtask execute frame encodes to %d bytes, want <= 32", n)
	}
	// A candidate partial and the final ranked result stay proportional to
	// the ids they carry: one byte of count plus a varint per gap between
	// ascending nodes (mquery's TestPartialEncodedSize holds real balls).
	knnPart := &Response{OK: true, Partials: []mquery.Partial{
		{Kind: mquery.KindKNN, Anchor: 42, Visited: 12,
			Candidates: []graph.NodeID{7, 9, 11, 13}},
	}}
	if n := respFrameSize(t, knnPart); n > 32 {
		t.Errorf("4-candidate knn partial frame encodes to %d bytes, want <= 32", n)
	}
	knnResp := &Response{OK: true, Results: []query.Result{
		{Type: query.KNearest, Count: 4,
			Nearest: [query.MaxKNearest]graph.NodeID{7, 9, 11, 13}},
	}}
	if n := respFrameSize(t, knnResp); n > 32 {
		t.Errorf("4-nearest knn result frame encodes to %d bytes, want <= 32", n)
	}
	// A truncated-frontier partial response stays proportional to its
	// boundary, with a small constant envelope.
	partResp := &Response{OK: true, Partials: []mquery.Partial{
		{Kind: mquery.KindReach, Anchor: 42, Visited: 64,
			Frontier: []mquery.Boundary{{Node: 7, Hops: 1}, {Node: 9, Hops: 1}}},
	}}
	if n := respFrameSize(t, partResp); n > 32 {
		t.Errorf("1-partial response frame encodes to %d bytes, want <= 32", n)
	}
	// An OK response to a ping must not carry result/stats payloads.
	pong := &Response{OK: true}
	if n := respFrameSize(t, pong); n > 8 {
		t.Errorf("pong frame encodes to %d bytes, want <= 8", n)
	}
	// A stats poll is a bare request...
	statsReq := &Request{Op: OpStats}
	if n := reqFrameSize(t, statsReq); n > 8 {
		t.Errorf("stats request frame encodes to %d bytes, want <= 8", n)
	}
	// ...and its response — a full system snapshot at the paper's 7-processor
	// scale, every counter populated — must stay a small, fixed-size payload
	// so a monitoring loop can poll it continuously.
	if n := respFrameSize(t, sevenProcStatsResponse()); n > 768 {
		t.Errorf("7-proc stats response frame encodes to %d bytes, want <= 768", n)
	}
}

// TestClusterStatsSnapshot checks the networked deployment's OpStats
// surface: after a workload, the router reports a system-wide snapshot
// whose per-processor assignment counts sum to the executed queries and
// whose cache/routing counters are live.
func TestClusterStatsSnapshot(t *testing.T) {
	g := gen.LocalWeb(1200, 8, 60, 0.01, 4)
	_, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 3, Policy: core.PolicyHash})
	qs := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots: 6, QueriesPerHotspot: 5, R: 2, H: 2, Seed: 11,
	})
	ctx := context.Background()
	for _, q := range qs {
		if _, err := cl.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Transport != "tcp" || snap.Policy != "hash" || snap.Processors != 3 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if snap.Queries != int64(len(qs)) {
		t.Fatalf("Queries = %d, want %d", snap.Queries, len(qs))
	}
	var assigned, executed int64
	for _, p := range snap.PerProc {
		assigned += p.Assigned
		executed += p.Executed
	}
	if assigned != int64(len(qs)) || executed != int64(len(qs)) {
		t.Fatalf("assigned/executed = %d/%d, want %d", assigned, executed, len(qs))
	}
	if snap.Cache.Touches() == 0 {
		t.Fatal("cache counters all zero after a workload")
	}
	if snap.RoutingNanos.Count != int64(len(qs)) {
		t.Fatalf("routing decisions = %d, want %d", snap.RoutingNanos.Count, len(qs))
	}

	// One acked edge mutation queues two invalidations per processor; they
	// show as pending until a query is routed there, then as delivered.
	u, v := qs[0].Node, graph.NodeID(0)
	for g.HasEdge(u, v) || u == v {
		v++
	}
	if _, err := cl.Mutate(ctx, []query.Mutation{{Op: query.MutAddEdge, Node: u, To: v}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Execute(ctx, qs[1]); err != nil {
		t.Fatal(err)
	}
	if snap, err = cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	var pending, delivered int64
	for _, p := range snap.PerProc {
		pending += p.PendingInvalidations
		delivered += p.InvalidationsDelivered
	}
	if pending != 4 || delivered != 2 {
		t.Fatalf("invalidations pending/delivered = %d/%d over %+v, want 4/2", pending, delivered, snap.PerProc)
	}
}

// TestSnapshotKeepsLastPolledCache pins where a silent processor's cache
// counters come from: the OpStats poll that last answered. A processor that
// stops answering keeps its row, its status and those counters, so the
// aggregate does not drop.
func TestSnapshotKeepsLastPolledCache(t *testing.T) {
	g := gen.LocalWeb(1200, 8, 60, 0.01, 4)
	d, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 2, Policy: core.PolicyHash})
	rs, procs := d.router, d.procs

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, q := range query.Hotspot(g, query.WorkloadSpec{NumHotspots: 6, QueriesPerHotspot: 5, R: 2, H: 2, Seed: 11}) {
		if _, err := cl.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	before, err := rs.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const gone = 1
	if before.PerProc[gone].Cache.Touches() == 0 {
		t.Fatalf("processor %d polled all-zero counters: %+v", gone, before.PerProc)
	}

	procs[gone].Close()
	after, err := rs.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	row := after.PerProc[gone]
	if row.Status == "" || row.Status != before.PerProc[gone].Status {
		t.Fatalf("closed processor's status = %q, was %q", row.Status, before.PerProc[gone].Status)
	}
	if row.Cache != before.PerProc[gone].Cache {
		t.Fatalf("closed processor reports %+v, its last poll answered %+v", row.Cache, before.PerProc[gone].Cache)
	}
	if after.Cache.Touches() < before.Cache.Touches() {
		t.Fatalf("aggregate cache touches dropped %d -> %d", before.Cache.Touches(), after.Cache.Touches())
	}
}
