package rpc

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// TestFetchAcrossEvictionIsNotCached: a storage fetch that was answered
// before a write landed, and whose reply reaches the processor after the
// write's eviction was applied there, must not put the pre-write record in
// the cache — every read after the ack would be served it. The storage tier
// is one real shard behind a handler that holds one chosen OpMultiGet reply
// (computed first, so it is the pre-write record) until released.
func TestFetchAcrossEvictionIsNotCached(t *testing.T) {
	ctx := context.Background()
	g := gen.LocalWeb(300, 6, 40, 0.01, 5)
	oracle := gen.LocalWeb(300, 6, 40, 0.01, 5)
	shards, _ := startStorageShards(t, 1)
	ss := shards[0]

	var mu sync.Mutex
	var holdKey uint64
	var armed bool
	held, release := make(chan struct{}), make(chan struct{})
	gate := startServer(t, func(ctx context.Context, req *Request) Response {
		resp := ss.handle(ctx, req)
		mu.Lock()
		hold := armed && req.Op == OpMultiGet && len(req.Keys) == 1 && req.Keys[0] == holdKey
		if hold {
			armed = false
		}
		mu.Unlock()
		if hold {
			close(held)
			<-release
		}
		return resp
	}, readPaths[0].wrap, nil)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	loader, err := DialStorageReplicated([]string{gate}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	loader.Close()
	ps, err := NewProcessorServerWith("127.0.0.1:0", ProcessorConfig{Storage: []string{gate}, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	rs, err := NewRouterServer("127.0.0.1:0", RouterConfig{ProcessorAddrs: []string{ps.Addr()}, StorageAddrs: []string{gate}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	cl, err := DialRouter(ctx, rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	// x gains an out-edge to y; z is a bystander whose query carries (or, with
	// an eviction fan-out, follows) the eviction to the processor.
	x, y, z := graph.NodeID(10), graph.NodeID(200), graph.NodeID(100)
	if g.HasEdge(x, y) {
		t.Fatalf("test graph already has %d->%d", x, y)
	}
	onX := query.Query{ID: 1, Type: query.NeighborAgg, Node: x, Hops: 1, Dir: graph.Out}
	onZ := query.Query{ID: 2, Type: query.NeighborAgg, Node: z, Hops: 1, Dir: graph.Out}

	mu.Lock()
	holdKey, armed = uint64(x), true
	mu.Unlock()
	inFlight := make(chan error, 1)
	go func() {
		_, err := cl.Execute(ctx, onX) // either answer is right: it races the write
		inFlight <- err
	}()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("the processor never fetched the query's record")
	}

	if _, err := cl.Mutate(ctx, []Mutation{{Op: query.MutAddEdge, Node: x, To: y}}); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.EnsureEdge(x, y, 0); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, cl, oracle, []query.Query{onZ}, "bystander after the write")

	close(release)
	if err := <-inFlight; err != nil {
		t.Fatalf("query in flight across the write: %v", err)
	}
	checkOracle(t, cl, oracle, []query.Query{onX}, "read after the acked write")
}
