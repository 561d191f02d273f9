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
// write's invalidation was applied there, must not put the pre-write record
// in the cache — every read after the ack would be served it.
func TestFetchAcrossEvictionIsNotCached(t *testing.T) { fetchAcrossWrite(t, false) }

// TestFetchAcrossUpdateKeepsEditedCopy is the same race with the record
// resident when the write lands: while the first read of x is held at
// storage a second one caches x, so the write's edits update that cached
// copy, and only then does the held fetch return the pre-write record. It
// must not overwrite the edited copy: the read after the ack is served the
// new record from the cache.
func TestFetchAcrossUpdateKeepsEditedCopy(t *testing.T) { fetchAcrossWrite(t, true) }

// fetchAcrossWrite holds a read of x at storage, acks a write that gives x an
// out-edge to y — its invalidation reaches the processor on a bystander's
// frame — then lets the held read go and checks the read after the ack.
// With resident set, a second read caches x while the first is held.
func fetchAcrossWrite(t *testing.T, resident bool) {
	ctx := context.Background()
	d := startGatedDeployment(t)
	x, y, z := d.x, d.y, d.z
	onX := query.Query{ID: 1, Type: query.NeighborAgg, Node: x, Hops: 1, Dir: graph.Out}
	onZ := query.Query{ID: 2, Type: query.NeighborAgg, Node: z, Hops: 1, Dir: graph.Out}

	inFlight := d.holdFetch(t, onX)
	if resident {
		checkOracle(t, d.cl, d.oracle, []query.Query{onX}, "second read, caching x")
		if !d.ps.cache.Contains(x) {
			t.Fatal("the second read did not cache x")
		}
	}
	if _, err := d.cl.Mutate(ctx, []query.Mutation{{Op: query.MutAddEdge, Node: x, To: y}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.oracle.EnsureEdge(x, y, 0); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, d.cl, d.oracle, []query.Query{onZ}, "bystander after the write")

	d.release()
	if err := <-inFlight; err != nil {
		t.Fatalf("query in flight across the write: %v", err)
	}
	if resident {
		misses := d.ps.Stats().Cache.Misses
		checkOracle(t, d.cl, d.oracle, []query.Query{{ID: 3, Type: query.NeighborAgg, Node: x, Hops: 0, Dir: graph.Out}}, "read of x after the acked write")
		if !d.ps.cache.Contains(x) || d.ps.Stats().Cache.Misses != misses {
			t.Fatal("x was refetched after the write: the edited copy did not stay cached")
		}
	}
	checkOracle(t, d.cl, d.oracle, []query.Query{onX}, "read after the acked write")
}

// gatedDeployment is one processor and a router over one real storage shard
// behind a handler that holds one chosen OpMultiGet reply — computed first,
// so it is what storage held before anything after it — until released. x
// gains an out-edge to y in the tests; z is a bystander whose query carries
// the write's invalidations to the processor.
type gatedDeployment struct {
	cl      *RouterClient
	ps      *ProcessorServer
	oracle  *graph.Graph
	x, y, z graph.NodeID

	mu      sync.Mutex
	holdKey uint64
	armed   bool
	held    chan struct{}
	release func()
}

func startGatedDeployment(t *testing.T) *gatedDeployment {
	t.Helper()
	ctx := context.Background()
	g := gen.LocalWeb(300, 6, 40, 0.01, 5)
	d := &gatedDeployment{oracle: gen.LocalWeb(300, 6, 40, 0.01, 5), x: 10, y: 200, z: 100, held: make(chan struct{})}
	if g.HasEdge(d.x, d.y) {
		t.Fatalf("test graph already has %d->%d", d.x, d.y)
	}
	shards, _ := startStorageShards(t, 1)
	ss := shards[0]
	gateOpen := make(chan struct{})
	var once sync.Once
	d.release = func() { once.Do(func() { close(gateOpen) }) }
	t.Cleanup(d.release)
	gate := startServer(t, func(ctx context.Context, req *Request) Response {
		resp := ss.handle(ctx, req)
		d.mu.Lock()
		hold := d.armed && req.Op == OpMultiGet && len(req.Keys) == 1 && req.Keys[0] == d.holdKey
		if hold {
			d.armed = false
		}
		d.mu.Unlock()
		if hold {
			close(d.held)
			<-gateOpen
		}
		return resp
	}, readPaths[0].wrap, nil)

	loader, err := DialStorageReplicated([]string{gate}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	loader.Close()
	d.ps, err = NewProcessorServerWith("127.0.0.1:0", ProcessorConfig{Storage: []string{gate}, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.ps.Close() })
	rs, err := NewRouterServer("127.0.0.1:0", RouterConfig{Processors: []string{d.ps.Addr()}, Storage: []string{gate}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	if d.cl, err = DialRouter(ctx, rs.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cl.Close() })
	return d
}

// holdFetch sends q, whose first storage read — of q.Node alone — is held
// until release; it returns once that read is held, with the channel q's
// outcome arrives on. Either answer is right: the query races what follows.
func (d *gatedDeployment) holdFetch(t *testing.T, q query.Query) <-chan error {
	t.Helper()
	d.mu.Lock()
	d.holdKey, d.armed = uint64(q.Node), true
	d.mu.Unlock()
	inFlight := make(chan error, 1)
	go func() {
		_, err := d.cl.Execute(context.Background(), q)
		inFlight <- err
	}()
	select {
	case <-d.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the processor never fetched the query's record")
	}
	return inFlight
}
