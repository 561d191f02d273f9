package grouting_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	grouting "repro"
)

// startTCPCluster assembles a real loopback deployment through the public
// API: storage shards, processors, a router, and a dialled Client.
func startTCPCluster(t testing.TB, g *grouting.Graph, nStorage, nProcs int, policy grouting.Policy) grouting.Client {
	t.Helper()
	return startTCPClusterCache(t, g, nStorage, nProcs, policy, 64<<20)
}

// startTCPClusterCache is startTCPCluster with cacheBytes of cache on every
// processor.
func startTCPClusterCache(t testing.TB, g *grouting.Graph, nStorage, nProcs int, policy grouting.Policy, cacheBytes int64) grouting.Client {
	t.Helper()
	ctx := context.Background()
	var storageAddrs []string
	for i := 0; i < nStorage; i++ {
		ss, err := grouting.ServeStorage("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ss.Close() })
		storageAddrs = append(storageAddrs, ss.Addr())
	}
	if err := grouting.LoadStorageReplicated(ctx, g, storageAddrs, 1); err != nil {
		t.Fatal(err)
	}
	var procAddrs []string
	for i := 0; i < nProcs; i++ {
		ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{Storage: storageAddrs, CacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Close() })
		procAddrs = append(procAddrs, ps.Addr())
	}
	rs, err := grouting.ServeRouter("127.0.0.1:0", grouting.RouterSpec{
		Processors: procAddrs,
		Policy:     policy,
		Graph:      g,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	cl, err := grouting.Dial(ctx, rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// runWorkload is THE transport-agnostic client function: it exercises all
// three submission paths (per-query Execute, one ExecuteBatch round trip,
// pipelined ExecuteStream) against whatever Client it is handed, and
// returns the results indexed by query ID. The same code runs unmodified
// against the virtual-time system and a real TCP cluster.
func runWorkload(ctx context.Context, c grouting.Client, qs []grouting.Query) ([]grouting.Result, error) {
	results := make([]grouting.Result, len(qs))
	third := len(qs) / 3

	for _, q := range qs[:third] {
		res, err := c.Execute(ctx, q)
		if err != nil {
			return nil, err
		}
		results[q.ID] = res
	}

	batch := qs[third : 2*third]
	bres, err := c.ExecuteBatch(ctx, batch)
	if err != nil {
		return nil, err
	}
	for i, q := range batch {
		results[q.ID] = bres[i]
	}

	rest := qs[2*third:]
	in := make(chan grouting.Query)
	go func() {
		defer close(in)
		for _, q := range rest {
			select {
			case in <- q:
			case <-ctx.Done():
				return
			}
		}
	}()
	for o := range c.ExecuteStream(ctx, in) {
		if o.Err != nil {
			return nil, o.Err
		}
		results[o.Query.ID] = o.Result
	}
	return results, ctx.Err()
}

// TestClientTwoTransports is the redesign's acceptance test: the same
// client function runs unmodified against the in-process virtual-time
// system and a real loopback TCP cluster, producing results identical to
// each other and to the oracle, with the same typed errors from both.
func TestClientTwoTransports(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 9, QueriesPerHotspot: 5, R: 2, H: 2, Seed: 3,
	})
	ctx := context.Background()

	sys, err := grouting.New(g,
		grouting.WithProcessors(3),
		grouting.WithStorageServers(2),
		grouting.WithPolicy(grouting.PolicyLandmark),
		grouting.WithLandmarks(8),
		grouting.WithMinSeparation(1),
		grouting.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	local, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}
	remote := startTCPCluster(t, g, 2, 3, grouting.PolicyLandmark)

	clients := []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}}

	var perClient [2][]grouting.Result
	for i, tc := range clients {
		results, err := runWorkload(ctx, tc.c, qs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, q := range qs {
			if want := grouting.Answer(g, q); results[q.ID] != want {
				t.Fatalf("%s: query %d (%v on %d): got %+v, want %+v",
					tc.name, q.ID, q.Type, q.Node, results[q.ID], want)
			}
		}
		perClient[i] = results
	}
	for id := range qs {
		if perClient[0][id] != perClient[1][id] {
			t.Fatalf("query %d differs between transports: %+v vs %+v",
				id, perClient[0][id], perClient[1][id])
		}
	}

	// Both transports return the same typed errors.
	for _, tc := range clients {
		bad := grouting.Query{Type: grouting.NeighborAgg, Node: 1, Hops: -2, Dir: grouting.Out}
		if _, err := tc.c.Execute(ctx, bad); !errors.Is(err, grouting.ErrBadQuery) {
			t.Fatalf("%s: bad query error = %v, want ErrBadQuery", tc.name, err)
		}
		unknown := grouting.Query{Type: grouting.NeighborAgg, Node: 1 << 30, Hops: 1, Dir: grouting.Out}
		if _, err := tc.c.Execute(ctx, unknown); !errors.Is(err, grouting.ErrUnknownNode) {
			t.Fatalf("%s: unknown node error = %v, want ErrUnknownNode", tc.name, err)
		}
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		ok := grouting.Query{Type: grouting.NeighborAgg, Node: 10, Hops: 1, Dir: grouting.Out}
		if _, err := tc.c.Execute(cancelled, ok); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled execute error = %v, want context.Canceled", tc.name, err)
		}
	}

	// A multi-anchor query anchored at a node that has no record is the same
	// ErrUnknownNode, alone or beside an anchor that exists. (The target is
	// out of the known anchor's reach: a fragment that finds its target ends
	// the query before the other fragments are looked at.)
	const missing = grouting.NodeID(1 << 30)
	known := g.Nodes()[1]
	reach := grouting.Query{Type: grouting.BoundedReach, Node: known, Hops: 1, VisitBudget: 4, Dir: grouting.Out}
	for _, cand := range g.Nodes() {
		reach.Anchors, reach.Target = []grouting.NodeID{known}, cand
		if !grouting.Answer(g, reach).Reachable {
			break
		}
	}
	for _, tc := range clients {
		for _, q := range unknownAnchorQueries(missing, known, reach) {
			if res, err := tc.c.Execute(ctx, q); !errors.Is(err, grouting.ErrUnknownNode) {
				t.Errorf("%s: %v anchored at %v = %+v, %v; want ErrUnknownNode", tc.name, q.Type, q.AnchorNodes(), res, err)
			}
		}
	}
}

// unknownAnchorQueries anchors a pattern match and two bounded-reach queries
// (shaped like reach) at the node missing, the second beside the anchor known.
func unknownAnchorQueries(missing, known grouting.NodeID, reach grouting.Query) []grouting.Query {
	pattern := grouting.Query{
		Type: grouting.PatternMatch, Node: missing, Dir: grouting.Out,
		Pattern: &grouting.Pattern{
			Nodes: []grouting.PatternNode{{Anchor: missing}, {}},
			Edges: []grouting.PatternEdge{{From: 0, To: 1}},
		},
	}
	alone, beside := reach, reach
	alone.Node, alone.Anchors = missing, []grouting.NodeID{missing}
	beside.Anchors = []grouting.NodeID{missing, known}
	return []grouting.Query{pattern, alone, beside}
}

// TestShardCountersTwoTransports: the per-shard section of Stats() carries
// what the shard counts on both transports — the same graph at the same
// replication factor puts the same keys and the same bytes on each slot
// whether the slot is a kvstore.Shard in this process or one behind a
// listener, and a read of an absent key and a warm restart's recovery time
// make it through the router's poll of its shards.
func TestShardCountersTwoTransports(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	ctx := context.Background()
	sys, err := grouting.New(g,
		grouting.WithProcessors(2),
		grouting.WithStorageServers(2),
		grouting.WithPolicy(grouting.PolicyHash),
		grouting.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	local, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}
	remote := startWritableTCPCluster(t, g, 2, 2, grouting.PolicyHash)

	q := grouting.Query{Type: grouting.NeighborAgg, Node: g.Nodes()[1], Hops: 2, Dir: grouting.Out}
	var perClient [2]grouting.Stats
	for i, c := range []grouting.Client{local, remote} {
		if _, err := c.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
		if perClient[i], err = c.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	loc, tcp := perClient[0].PerStorage, perClient[1].PerStorage
	if len(loc) != 2 || len(tcp) != 2 {
		t.Fatalf("storage members: %d local, %d tcp; want 2 and 2", len(loc), len(tcp))
	}
	for slot := range loc {
		if loc[slot].Keys != tcp[slot].Keys || loc[slot].Bytes != tcp[slot].Bytes || tcp[slot].Bytes <= 0 {
			t.Errorf("slot %d: local keys=%d bytes=%d, tcp keys=%d bytes=%d; want equal and bytes > 0",
				slot, loc[slot].Keys, loc[slot].Bytes, tcp[slot].Keys, tcp[slot].Bytes)
		}
	}

	// The networked processor finds out that a node is unknown by asking
	// storage: that read is a miss on the shard the id hashes to.
	unknown := grouting.Query{Type: grouting.NeighborAgg, Node: 1 << 30, Hops: 1, Dir: grouting.Out}
	if _, err := remote.Execute(ctx, unknown); !errors.Is(err, grouting.ErrUnknownNode) {
		t.Fatalf("unknown node error = %v, want ErrUnknownNode", err)
	}
	st, err := remote.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if misses := st.PerStorage[0].Misses + st.PerStorage[1].Misses; misses < 1 {
		t.Errorf("shard misses over tcp = %d after a read of an absent key, want >= 1", misses)
	}
}

// TestRecoveryTimeOverTCP restarts a durable shard over its directory: the
// replay it ran shows in Client.Stats as a warm shard with a recovery time.
func TestRecoveryTimeOverTCP(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	ctx := context.Background()
	dir := t.TempDir()
	ss, err := grouting.ServeStorageDurable("127.0.0.1:0", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := grouting.LoadStorageReplicated(ctx, g, []string{ss.Addr()}, 1); err != nil {
		t.Fatal(err)
	}
	ss.Close()
	if ss, err = grouting.ServeStorageDurable("127.0.0.1:0", dir, false); err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{Storage: []string{ss.Addr()}, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	rs, err := grouting.ServeRouter("127.0.0.1:0", grouting.RouterSpec{
		Processors: []string{ps.Addr()}, Policy: grouting.PolicyHash, Storage: []string{ss.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	cl, err := grouting.Dial(ctx, rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m := st.PerStorage[0]; m.Durable != "warm" || m.ReplayedBytes <= 0 || m.RecoverNanos <= 0 || m.Keys != int64(len(g.Nodes())) {
		t.Errorf("restarted shard reports %+v; want warm, every key, and its replay's bytes and time", m)
	}
}

// TestClientStreamCancellation drives ExecuteStream on both transports
// with an endless query feed and cancels mid-stream: every outcome
// delivered before the cancel must match the oracle, outcomes racing the
// cancel must carry a context error, and the stream must close promptly
// even though the input channel never does. Run under -race this also
// checks the concurrent client paths.
func TestClientStreamCancellation(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 40, QueriesPerHotspot: 10, R: 2, H: 2, Seed: 5,
	})

	sys, err := grouting.New(g,
		grouting.WithProcessors(2),
		grouting.WithStorageServers(2),
		grouting.WithPolicy(grouting.PolicyHash),
		grouting.WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	local, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}
	remote := startTCPCluster(t, g, 2, 2, grouting.PolicyHash)

	for _, tc := range []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			in := make(chan grouting.Query)
			go func() {
				for i := 0; ; i++ {
					select {
					case in <- qs[i%len(qs)]:
					case <-ctx.Done():
						return
					}
				}
			}()
			out := tc.c.ExecuteStream(ctx, in)

			for seen := 0; seen < 25; seen++ {
				o, ok := <-out
				if !ok {
					t.Fatal("stream closed before cancellation")
				}
				if o.Err != nil {
					t.Fatalf("pre-cancel outcome error: %v", o.Err)
				}
				if want := grouting.Answer(g, o.Query); o.Result != want {
					t.Fatalf("streamed query %d: got %+v, want %+v", o.Query.ID, o.Result, want)
				}
			}
			cancel()

			closed := make(chan struct{})
			go func() {
				defer close(closed)
				for o := range out {
					if o.Err == nil {
						// In-flight queries may still complete; completed
						// results must stay correct.
						if want := grouting.Answer(g, o.Query); o.Result != want {
							t.Errorf("post-cancel query %d: got %+v, want %+v", o.Query.ID, o.Result, want)
						}
					} else if !errors.Is(o.Err, context.Canceled) && !errors.Is(o.Err, grouting.ErrUnavailable) {
						t.Errorf("post-cancel outcome error = %v, want context.Canceled or ErrUnavailable", o.Err)
					}
				}
			}()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("stream did not close after cancellation")
			}
		})
	}
}

// TestConfigOptionsEquivalence checks that New with every option builds the
// system NewSystem builds from a Config literal setting the same fields.
func TestConfigOptionsEquivalence(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	provider := grouting.NewFileProvider(sharedEmbedding(t, g))
	got, err := grouting.New(g,
		grouting.WithPolicy(grouting.PolicyLandmark),
		grouting.WithProcessors(5),
		grouting.WithStorageServers(3),
		grouting.WithCacheBytes(1<<20),
		grouting.WithLandmarks(12),
		grouting.WithMinSeparation(2),
		grouting.WithDimensions(4),
		grouting.WithSeed(9),
		grouting.WithEmbedProvider(provider),
	)
	if err != nil {
		t.Fatal(err)
	}
	want, err := grouting.NewSystem(g, grouting.Config{
		Policy:         grouting.PolicyLandmark,
		Processors:     5,
		StorageServers: 3,
		CacheBytes:     1 << 20,
		Landmarks:      12,
		MinSeparation:  2,
		Dimensions:     4,
		Seed:           9,
		EmbedProvider:  provider,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Config(), want.Config()) {
		t.Fatalf("options config %+v != struct config %+v", got.Config(), want.Config())
	}
}

// TestLocalClientClose checks closed clients fail with ErrUnavailable.
func TestLocalClientClose(t *testing.T) {
	g := grouting.GenerateDataset(grouting.Memetracker, 0.02, 3)
	sys, err := grouting.New(g,
		grouting.WithProcessors(2),
		grouting.WithStorageServers(2),
		grouting.WithPolicy(grouting.PolicyHash),
	)
	if err != nil {
		t.Fatal(err)
	}
	c, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	q := grouting.Query{Type: grouting.NeighborAgg, Node: 1, Hops: 1, Dir: grouting.Out}
	if _, err := c.Execute(context.Background(), q); !errors.Is(err, grouting.ErrUnavailable) {
		t.Fatalf("closed client error = %v, want ErrUnavailable", err)
	}
}
