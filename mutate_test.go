package grouting_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	grouting "repro"
)

// startWritableTCPCluster is startTCPCluster with the storage tier handed
// to the router, which is what arms the replicated write path (and, when
// spec'd, the placement planner) on the TCP transport.
func startWritableTCPCluster(t testing.TB, g *grouting.Graph, nStorage, nProcs int, policy grouting.Policy) grouting.Client {
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
		ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{Storage: storageAddrs, CacheBytes: 64 << 20})
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
		Storage:    storageAddrs,
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

// mutationStream is the transport-agnostic write workload: singleton
// upserts and edge inserts, a batched burst, and a tombstoning removal,
// every write mirrored onto the caller's oracle. It returns the nodes it
// created.
func mutationStream(ctx context.Context, c grouting.Client, oracle *grouting.Graph) ([]grouting.NodeID, error) {
	const newNodes = 20
	base := oracle.NumNodes()
	pageLabel := oracle.InternLabel("page")
	linkLabel := oracle.InternLabel("link")

	var added []grouting.NodeID
	for i := 0; i < newNodes/2; i++ {
		u := oracle.MaxNodeID()
		if err := c.UpsertNode(ctx, u, "page"); err != nil {
			return nil, err
		}
		oracle.UpsertNode(u, pageLabel)
		anchor := grouting.NodeID((i * 31) % base)
		if err := c.AddEdge(ctx, u, anchor, "link"); err != nil {
			return nil, err
		}
		if _, err := oracle.EnsureEdge(u, anchor, linkLabel); err != nil {
			return nil, err
		}
		added = append(added, u)
	}

	var burst []grouting.Mutation
	next := oracle.MaxNodeID()
	for i := newNodes / 2; i < newNodes; i++ {
		burst = append(burst,
			grouting.Mutation{Op: grouting.MutUpsertNode, Node: next, Label: "page"},
			grouting.Mutation{Op: grouting.MutAddEdge, Node: next, To: grouting.NodeID((i*31 + 5) % base), Label: "link"},
		)
		next++
	}
	if n, err := c.Mutate(ctx, burst); err != nil {
		return nil, fmt.Errorf("batch applied %d of %d: %w", n, len(burst), err)
	}
	for _, m := range burst {
		switch m.Op {
		case grouting.MutUpsertNode:
			oracle.UpsertNode(m.Node, pageLabel)
			added = append(added, m.Node)
		case grouting.MutAddEdge:
			if _, err := oracle.EnsureEdge(m.Node, m.To, linkLabel); err != nil {
				return nil, err
			}
		}
	}

	// Tombstone: add a shortcut, remove it, and prove a second removal is
	// the typed conflict rather than a transport failure.
	if err := c.AddEdge(ctx, added[0], added[1], "link"); err != nil {
		return nil, err
	}
	if err := c.RemoveEdge(ctx, added[0], added[1]); err != nil {
		return nil, err
	}
	if err := c.RemoveEdge(ctx, added[0], added[1]); !errors.Is(err, grouting.ErrConflict) {
		return nil, fmt.Errorf("double removal: err = %v, want ErrConflict", err)
	}
	return added, nil
}

// TestMutateTwoTransports runs the same mutation stream through the
// virtual-time client and a real TCP cluster: on both, every subsequent
// query must agree with the client-side oracle (read-your-writes, no
// resurrection of the removed edge), the two transports must agree with
// each other, and both must return the same typed write errors.
func TestMutateTwoTransports(t *testing.T) {
	const scale, seed = 0.02, 7
	ctx := context.Background()

	sys, err := grouting.New(grouting.GenerateDataset(grouting.WebGraph, scale, seed),
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
	remote := startWritableTCPCluster(t, grouting.GenerateDataset(grouting.WebGraph, scale, seed),
		2, 3, grouting.PolicyLandmark)

	clients := []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}}

	var perClient [2][]grouting.Result
	for i, tc := range clients {
		o := grouting.GenerateDataset(grouting.WebGraph, scale, seed)
		added, err := mutationStream(ctx, tc.c, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var results []grouting.Result
		for _, u := range added {
			q := grouting.Query{Type: grouting.NeighborAgg, Node: u, Hops: 2, Dir: grouting.Both}
			res, err := tc.c.Execute(ctx, q)
			if err != nil {
				t.Fatalf("%s: query on new node %d: %v", tc.name, u, err)
			}
			if want := grouting.Answer(o, q); res != want {
				t.Fatalf("%s: node %d: got %+v, want %+v", tc.name, u, res, want)
			}
			results = append(results, res)
		}
		perClient[i] = results
	}
	for i := range perClient[0] {
		if perClient[0][i] != perClient[1][i] {
			t.Fatalf("result %d differs between transports: %+v vs %+v",
				i, perClient[0][i], perClient[1][i])
		}
	}

	// Same typed write errors from both transports.
	for _, tc := range clients {
		if _, err := tc.c.Mutate(ctx, []grouting.Mutation{
			{Op: grouting.MutAddEdge, Node: 3, To: 3, Label: "link"},
		}); !errors.Is(err, grouting.ErrBadQuery) {
			t.Fatalf("%s: self-loop err = %v, want ErrBadQuery", tc.name, err)
		}
		if err := tc.c.AddEdge(ctx, 1<<30, 0, "link"); !errors.Is(err, grouting.ErrConflict) {
			t.Fatalf("%s: edge on missing endpoint err = %v, want ErrConflict", tc.name, err)
		}
	}
}

// TestMutateConcurrentReadYourWrites hammers both transports with
// concurrent writers touching disjoint records, each immediately reading
// back its own write — through the record it created, and through the
// anchor's record, which it read (so a processor cached it) just before the
// write. Run under -race this exercises the concurrent client paths, the
// router's single-writer mutation lock and the invalidations that ride the
// read-back's own frame.
func TestMutateConcurrentReadYourWrites(t *testing.T) {
	const scale, seed = 0.02, 7
	const workers, perWorker = 6, 4
	ctx := context.Background()

	// Precompute the final oracle: every worker's writes applied. Worker
	// neighbourhoods are disjoint, so each read-back answer is independent
	// of how the other workers' writes interleave.
	oracle := grouting.GenerateDataset(grouting.WebGraph, scale, seed)
	base := oracle.NumNodes()
	pageLabel := oracle.InternLabel("page")
	linkLabel := oracle.InternLabel("link")
	first := oracle.MaxNodeID()
	type job struct {
		node       grouting.NodeID
		anchor     grouting.NodeID
		want       grouting.Result
		wantAnchor grouting.Result
	}
	intoAnchor := func(j job) grouting.Query {
		return grouting.Query{Type: grouting.NeighborAgg, Node: j.anchor, Hops: 1, Dir: grouting.In}
	}
	jobs := make([][]job, workers)
	for w := 0; w < workers; w++ {
		for k := 0; k < perWorker; k++ {
			u := first + grouting.NodeID(w*perWorker+k)
			anchor := grouting.NodeID(w*perWorker+k) * 7 // distinct, < base
			if int(anchor) >= base {
				t.Fatalf("anchor %d escapes the base graph", anchor)
			}
			oracle.UpsertNode(u, pageLabel)
			if _, err := oracle.EnsureEdge(u, anchor, linkLabel); err != nil {
				t.Fatal(err)
			}
			jobs[w] = append(jobs[w], job{node: u, anchor: anchor})
		}
	}
	for w := range jobs {
		for k := range jobs[w] {
			q := grouting.Query{Type: grouting.NeighborAgg, Node: jobs[w][k].node, Hops: 1, Dir: grouting.Out}
			jobs[w][k].want = grouting.Answer(oracle, q)
			jobs[w][k].wantAnchor = grouting.Answer(oracle, intoAnchor(jobs[w][k]))
		}
	}

	sys, err := grouting.New(grouting.GenerateDataset(grouting.WebGraph, scale, seed),
		grouting.WithProcessors(3),
		grouting.WithStorageServers(2),
		grouting.WithPolicy(grouting.PolicyHash),
	)
	if err != nil {
		t.Fatal(err)
	}
	local, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}
	remote := startWritableTCPCluster(t, grouting.GenerateDataset(grouting.WebGraph, scale, seed),
		2, 3, grouting.PolicyHash)

	for _, tc := range []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}} {
		t.Run(tc.name, func(t *testing.T) {
			errs := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, j := range jobs[w] {
						if _, err := tc.c.Execute(ctx, intoAnchor(j)); err != nil {
							errs <- fmt.Errorf("worker %d: warming anchor %d: %w", w, j.anchor, err)
							return
						}
						if err := tc.c.UpsertNode(ctx, j.node, "page"); err != nil {
							errs <- fmt.Errorf("worker %d: upsert %d: %w", w, j.node, err)
							return
						}
						if err := tc.c.AddEdge(ctx, j.node, j.anchor, "link"); err != nil {
							errs <- fmt.Errorf("worker %d: edge %d->%d: %w", w, j.node, j.anchor, err)
							return
						}
						q := grouting.Query{Type: grouting.NeighborAgg, Node: j.node, Hops: 1, Dir: grouting.Out}
						res, err := tc.c.Execute(ctx, q)
						if err != nil {
							errs <- fmt.Errorf("worker %d: read-back %d: %w", w, j.node, err)
							return
						}
						if res != j.want {
							errs <- fmt.Errorf("worker %d: node %d read its own write wrong: got %+v, want %+v",
								w, j.node, res, j.want)
							return
						}
						if res, err = tc.c.Execute(ctx, intoAnchor(j)); err != nil || res != j.wantAnchor {
							errs <- fmt.Errorf("worker %d: anchor %d, cached before the write, read back %+v (%v), want %+v",
								w, j.anchor, res, err, j.wantAnchor)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
