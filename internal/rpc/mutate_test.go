package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/query"
	"repro/internal/topology"
)

// storedAt reads key's raw bytes straight off one shard, bypassing every
// client-side placement: what that replica holds, not what a reader would
// resolve to.
func storedAt(t *testing.T, addr string, key uint64) ([]byte, bool) {
	t.Helper()
	cn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	resp, err := cn.Call(context.Background(), &Request{Op: OpMultiGet, Keys: []uint64{key}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != 1 || len(resp.Founds) != 1 {
		t.Fatalf("shard %s answered %d values for 1 key", addr, len(resp.Values))
	}
	return resp.Values[0], resp.Founds[0]
}

// checkOracle runs qs through the router and compares every answer with
// the in-memory oracle.
func checkOracle(t *testing.T, cl *RouterClient, oracle *graph.Graph, qs []query.Query, phase string) {
	t.Helper()
	for _, q := range qs {
		got, err := cl.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: query %d: %v", phase, q.ID, err)
		}
		if want := query.Answer(oracle, q); got != want {
			t.Fatalf("%s: query %d (%v on %d): got %+v, want %+v", phase, q.ID, q.Type, q.Node, got, want)
		}
	}
}

// stallProxy is a loopback TCP forwarder whose client→backend direction
// can be stalled: while paused, bytes a client sends are held, and resume
// drops them together with the connection they were on — a replica behind
// a partition that heals by resetting what stalled. (Delivering the held
// frames late would prove nothing: a storage shard serves the frames of
// one connection concurrently, so a late write and its roll-back could land
// in either order.)
type stallProxy struct {
	ln      net.Listener
	backend string

	mu     sync.Mutex
	resume chan struct{} // non-nil while paused; closed by Resume
}

func newStallProxy(t *testing.T, backend string) *stallProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallProxy{ln: ln, backend: backend}
	t.Cleanup(func() { p.Resume(); ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			go p.pipe(b, c, true)
			go p.pipe(c, b, false)
		}
	}()
	return p
}

func (p *stallProxy) Addr() string { return p.ln.Addr().String() }

func (p *stallProxy) Pause() {
	p.mu.Lock()
	if p.resume == nil {
		p.resume = make(chan struct{})
	}
	p.mu.Unlock()
}

func (p *stallProxy) Resume() {
	p.mu.Lock()
	if p.resume != nil {
		close(p.resume)
		p.resume = nil
	}
	p.mu.Unlock()
}

func (p *stallProxy) pipe(dst, src net.Conn, gated bool) {
	defer dst.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if gated {
			p.mu.Lock()
			gate := p.resume
			p.mu.Unlock()
			if gate != nil {
				<-gate
				src.Close()
				return
			}
		}
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				src.Close()
			}
			return
		}
	}
}

// TestMutateRollbackOnExpiredContext stalls the second replica of a
// mutation's two records so its write-all runs into the deadline after the
// first replica already took both new records — one frame per shard, in
// flight together. The unacked mutation must leave both replicas as it found
// them — the roll-back cannot run on the context whose expiry caused it —
// and a reader that cached the half-written record meanwhile must be back on
// the pre-image too. Then the stalled replica dies outright: the same
// mutation fails with the typed error, and the survivor is back at both
// pre-images by the time the failure is reported.
func TestMutateRollbackOnExpiredContext(t *testing.T) {
	g := gen.LocalWeb(300, 6, 40, 0.01, 5)
	ctx := context.Background()
	shards, shardAddrs := startStorageShards(t, 2)
	proxy := newStallProxy(t, shardAddrs[1])
	storageAddrs := []string{shardAddrs[0], proxy.Addr()}

	loader, err := DialStorageReplicated(storageAddrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	loader.Close()
	ps, err := NewProcessorServerWith("127.0.0.1:0", ProcessorConfig{Storage: storageAddrs, StorageReplicas: 2, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	rs, err := NewRouterServer("127.0.0.1:0", RouterConfig{
		Processors:      []string{ps.Addr()},
		Storage:         storageAddrs,
		StorageReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	cl, err := DialRouter(ctx, rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	// An edge between two records that are read from the healthy shard.
	healthyFirst := func(from graph.NodeID) graph.NodeID {
		for ; ; from++ {
			if topology.RendezvousN(uint64(from), []int{0, 1}, 2, nil)[0] == 0 {
				return from
			}
		}
	}
	u := healthyFirst(0)
	v := healthyFirst(u + 1)
	for g.HasEdge(u, v) {
		v = healthyFirst(v + 1)
	}
	pre := map[graph.NodeID][]byte{
		u: gstore.Encode(nil, gstore.RecordOf(g, u)),
		v: gstore.Encode(nil, gstore.RecordOf(g, v)),
	}
	// diverged names a record that is not at its pre-image on one of slots.
	diverged := func(slots ...int) string {
		for id, want := range pre {
			for _, slot := range slots {
				if val, found := storedAt(t, shardAddrs[slot], uint64(id)); !found || !bytes.Equal(val, want) {
					return fmt.Sprintf("record %d on slot %d", id, slot)
				}
			}
		}
		return ""
	}

	// While the write-all is stalled a reader caches the record the healthy
	// replica already took: the roll-back has to invalidate it as well.
	onU := []query.Query{{Type: query.NeighborAgg, Node: u, Hops: 1, Dir: graph.Out}}
	proxy.Pause()
	failed := make(chan error, 1)
	go func() {
		short, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
		defer cancel()
		_, err := cl.Mutate(short, []query.Mutation{{Op: query.MutAddEdge, Node: u, To: v}})
		failed <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for diverged(0) == "" {
		if time.Now().After(deadline) {
			t.Fatal("the healthy replica never took the stalled mutation's records")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.Execute(ctx, onU[0]); err != nil {
		t.Fatal(err)
	}
	if err := <-failed; err == nil {
		t.Fatal("mutation acked across a stalled replica")
	}
	proxy.Resume()

	deadline = time.Now().Add(5 * time.Second)
	for diverged(0, 1) != "" {
		if time.Now().After(deadline) {
			t.Fatalf("unacked mutation left %s rewritten: the roll-back never restored the pre-image", diverged(0, 1))
		}
		time.Sleep(20 * time.Millisecond)
	}
	rs.mutMu.Lock() // held until the roll-back has queued its invalidations
	rs.mutMu.Unlock()
	checkOracle(t, cl, g, onU, "after the roll-back")

	shards[1].Close()
	_, err = cl.Mutate(ctx, []query.Mutation{{Op: query.MutAddEdge, Node: u, To: v}})
	if !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("mutation across a dead replica: err = %v, want ErrUnavailable", err)
	}
	if d := diverged(0); d != "" {
		t.Fatalf("unacked mutation left %s rewritten on the surviving replica", d)
	}
}

// TestRollbackOneFramePerShard rolls back writes whose pre-images are partly
// absent: every replica of the stored records gets its pre-image bytes back,
// the records the failed write created are gone from every replica, and no
// shard is sent more than one OpMultiPut and one OpDrop for the lot.
func TestRollbackOneFramePerShard(t *testing.T) {
	ctx := context.Background()
	servers, addrs := startStorageShards(t, 3)
	rs, err := NewRouterServer("127.0.0.1:0", RouterConfig{
		Processors: []string{startStubProc(t).addr()}, Storage: addrs, StorageReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	var ws []gstore.Write
	var keys []uint64
	var rewrites [][]byte
	for k := uint64(1); k <= 8; k++ {
		w := gstore.Write{Node: graph.NodeID(k)}
		if k%2 == 0 { // the even records existed before the write
			w.Pre = gstore.Encode(nil, &gstore.Record{Node: w.Node, NodeLabel: 1})
		}
		ws = append(ws, w)
		keys = append(keys, k)
		rewrites = append(rewrites, gstore.Encode(nil, &gstore.Record{Node: graph.NodeID(k), NodeLabel: 2}))
	}
	// The failed write's records, landed on every replica.
	if err := rs.storage.PutBatch(ctx, keys, rewrites); err != nil {
		t.Fatal(err)
	}
	before := make([]int64, len(servers))
	wantFrames := make([]int64, len(servers))
	for i, s := range servers {
		before[i] = s.Stats().Requests
		var puts, drops bool
		for _, w := range ws {
			if slices.Contains(rs.storage.placement(uint64(w.Node), nil), i) {
				puts, drops = puts || w.Pre != nil, drops || w.Pre == nil
			}
		}
		for _, sent := range []bool{puts, drops} {
			if sent {
				wantFrames[i]++
			}
		}
	}

	rs.rollback(ctx, ws)
	for i, s := range servers {
		if got := s.Stats().Requests - before[i]; got != wantFrames[i] {
			t.Errorf("shard %d was sent %d frames by the roll-back, want %d", i, got, wantFrames[i])
		}
	}
	for _, w := range ws {
		key := uint64(w.Node)
		for _, slot := range rs.storage.placement(key, nil) {
			if val, found := storedAt(t, addrs[slot], key); found != (w.Pre != nil) || !bytes.Equal(val, w.Pre) {
				t.Errorf("key %d on slot %d after the roll-back: found=%v %x, want found=%v %x", key, slot, found, val, w.Pre != nil, w.Pre)
			}
		}
	}
}

// TestStoragePutNeedsEveryReplica pins the client's one write semantic: a
// record whose placement includes a dead replica is not acked — for a single
// put, a batch and the bulk loader alike — the error is the typed one, and
// the shard that failed the frame is marked down.
func TestStoragePutNeedsEveryReplica(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 3)
	servers, addrs := startStorageShards(t, 3)
	sc, err := DialStorageReplicated(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ctx := context.Background()
	servers[2].Close()

	var onDead, offDead uint64
	for ; !slices.Contains(sc.placement(onDead, nil), 2); onDead++ {
	}
	for ; slices.Contains(sc.placement(offDead, nil), 2); offDead++ {
	}
	rec := func(key uint64) []byte { return gstore.Encode(nil, &gstore.Record{Node: graph.NodeID(key)}) }
	if err := sc.PutBatch(ctx, []uint64{offDead}, [][]byte{rec(offDead)}); err != nil || sc.down[2].Load() {
		t.Fatalf("Put clear of the dead replica: err = %v, shard 2 down = %v", err, sc.down[2].Load())
	}
	err = sc.PutBatch(ctx, []uint64{onDead}, [][]byte{rec(onDead)})
	if !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("Put with a dead replica: err = %v, want ErrUnavailable", err)
	}
	if !sc.down[2].Load() || sc.down[0].Load() || sc.down[1].Load() || sc.Failovers() != 1 {
		t.Fatalf("after the failed Put: down = %v %v %v, %d failovers; want only shard 2 down, once",
			sc.down[0].Load(), sc.down[1].Load(), sc.down[2].Load(), sc.Failovers())
	}
	err = sc.PutBatch(ctx, []uint64{offDead, onDead}, [][]byte{rec(offDead), rec(onDead)})
	if !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("PutBatch with a dead replica: err = %v, want ErrUnavailable", err)
	}
	if err := sc.LoadGraph(ctx, g); !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("LoadGraph with a dead replica: err = %v, want ErrUnavailable", err)
	}
	if err := sc.PutBatch(ctx, nil, nil); err != nil {
		t.Fatalf("empty PutBatch: %v", err)
	}
}
