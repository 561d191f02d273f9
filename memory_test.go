package grouting_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"weak"

	grouting "repro"
	"repro/internal/gen"
)

// labelledGraph is the dataset of the tests below: sparse, every node and
// edge labelled. The same call always yields an equal graph.
func labelledGraph() *grouting.Graph { return grouting.GenerateDataset(grouting.Freebase, 0.05, 5) }

// startClusterOverOwnGraph brings up a writable loopback deployment over a
// graph nobody else holds, and hands back only a weak pointer to it.
//
//go:noinline
func startClusterOverOwnGraph(t *testing.T, policy grouting.Policy) (grouting.Client, weak.Pointer[grouting.Graph]) {
	g := labelledGraph()
	return startWritableTCPCluster(t, g, 2, 2, policy), weak.Make(g)
}

// TestRouterDoesNotRetainGraph: the router reads RouterSpec.Graph while it
// is constructed and keeps routing tables and the label table, nothing
// else — so once the caller lets go the graph is collectable, and labelled
// patterns and labelled mutations still resolve exactly as they do on the
// in-process transport, which holds its graph.
func TestRouterDoesNotRetainGraph(t *testing.T) {
	ctx := context.Background()
	for _, policy := range []grouting.Policy{grouting.PolicyHash, grouting.PolicyEmbed} {
		t.Run(policy.String(), func(t *testing.T) {
			remote, wp := startClusterOverOwnGraph(t, policy)
			runtime.GC()
			if wp.Value() != nil {
				t.Fatal("the graph handed to ServeRouter is still reachable after construction")
			}

			sys, err := grouting.New(labelledGraph(),
				grouting.WithProcessors(2), grouting.WithStorageServers(2),
				grouting.WithPolicy(policy), grouting.WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			local, err := grouting.NewLocalClient(sys)
			if err != nil {
				t.Fatal(err)
			}
			oracle := labelledGraph()

			const hub = grouting.NodeID(1) // node 0 never anchors a pattern
			fresh := oracle.MaxNodeID()
			pattern := func(edgeLabel, nodeLabel string) grouting.Query {
				return grouting.Query{
					Type: grouting.PatternMatch, Node: hub, Dir: grouting.Out,
					Pattern: &grouting.Pattern{
						Nodes: []grouting.PatternNode{{Anchor: hub}, {Label: nodeLabel}},
						Edges: []grouting.PatternEdge{{From: 0, To: 1, Label: edgeLabel}},
					},
				}
			}
			check := func(q grouting.Query, atLeast int) {
				t.Helper()
				want := grouting.Answer(oracle, q)
				if want.Matches < atLeast {
					t.Fatalf("oracle finds %d matches, the test needs %d", want.Matches, atLeast)
				}
				for name, c := range map[string]grouting.Client{"virtual-time": local, "tcp": remote} {
					if got, err := c.Execute(ctx, q); err != nil || got != want {
						t.Fatalf("%s: got %+v, %v; want %+v", name, got, err, want)
					}
				}
			}

			// A label the loader interned: the hub's most common neighbour type.
			byType := map[string]int{}
			for _, e := range oracle.OutEdges(hub) {
				byType[oracle.NodeLabel(e.To)]++
			}
			common := ""
			for l, n := range byType {
				if n > byType[common] || (n == byType[common] && l < common) {
					common = l
				}
			}
			check(pattern("", common), 1)

			// Labels nobody has interned yet, written through each client and
			// mirrored on the oracle; the pattern over them finds the new edge.
			muts := []grouting.Mutation{
				{Op: grouting.MutUpsertNode, Node: fresh, Label: "brand-new-type"},
				{Op: grouting.MutAddEdge, Node: hub, To: fresh, Label: "brand-new-rel"},
			}
			for name, c := range map[string]grouting.Client{"virtual-time": local, "tcp": remote} {
				if n, err := c.Mutate(ctx, muts); err != nil || n != len(muts) {
					t.Fatalf("%s: Mutate = %d, %v", name, n, err)
				}
			}
			oracle.UpsertNode(fresh, oracle.InternLabel("brand-new-type"))
			if _, err := oracle.EnsureEdge(hub, fresh, oracle.InternLabel("brand-new-rel")); err != nil {
				t.Fatal(err)
			}
			check(pattern("brand-new-rel", "brand-new-type"), 1)
			check(pattern("", common), 1)
		})
	}
}

// TestRoutingTableBytesTwoTransports: Stats().RoutingTableBytes is the
// paper's preprocessing-storage row read off a running deployment — what
// the router holds to route by (landmark index, d(u,p) table, coordinates).
// The same graph under the same policy and preprocessing parameters reports
// the same figure from both transports: above zero for the smart policies,
// zero for hash, which routes by arithmetic alone. What the table is rides
// beside it: EmbedDimensions and EmbedProvider, 8 and "learned" for the one
// built here.
func TestRoutingTableBytesTwoTransports(t *testing.T) {
	ctx := context.Background()
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	for _, policy := range []grouting.Policy{grouting.PolicyHash, grouting.PolicyLandmark, grouting.PolicyEmbed} {
		// The networked router's preprocessing parameters (32 landmarks at
		// least 2 hops apart, 8 dimensions) are fixed; match them.
		sys, err := grouting.New(g,
			grouting.WithProcessors(3), grouting.WithStorageServers(2), grouting.WithPolicy(policy),
			grouting.WithLandmarks(32), grouting.WithMinSeparation(2), grouting.WithDimensions(8), grouting.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		local, err := grouting.NewLocalClient(sys)
		if err != nil {
			t.Fatal(err)
		}
		remote := startTCPCluster(t, g, 2, 3, policy)
		ls, err := local.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := remote.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ls.RoutingTableBytes != rs.RoutingTableBytes {
			t.Errorf("%v: RoutingTableBytes %d on virtual-time, %d on tcp", policy, ls.RoutingTableBytes, rs.RoutingTableBytes)
		}
		if smart := policy != grouting.PolicyHash; (rs.RoutingTableBytes > 0) != smart {
			t.Errorf("%v: RoutingTableBytes = %d", policy, rs.RoutingTableBytes)
		}
		wantDims, wantProvider := int64(0), ""
		if policy == grouting.PolicyEmbed {
			wantDims, wantProvider = 8, "learned"
		}
		for _, st := range []grouting.Stats{ls, rs} {
			if st.EmbedDimensions != wantDims || st.EmbedProvider != wantProvider {
				t.Errorf("%v on %s: embedding of %d dimensions from provider %q, want %d from %q",
					policy, st.Transport, st.EmbedDimensions, st.EmbedProvider, wantDims, wantProvider)
			}
		}
	}
}

// memMark is a point on the process's memory curve: what is live after a
// collection (heap objects plus goroutine stacks) and everything allocated
// so far.
type memMark struct{ live, total uint64 }

func markMem() memMark {
	// Twice: the first collection queues the finalizers of closed
	// connections, the second frees what they held.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.HeapAlloc + m.StackInuse, m.TotalAlloc}
}

// since reports, in MiB, what has stayed live and what was allocated since
// the earlier mark.
func (m memMark) since() (retained, allocated float64) {
	now := markMem()
	return (float64(now.live) - float64(m.live)) / (1 << 20), float64(now.total-m.total) / (1 << 20)
}

// serveRouterFromFile starts a router the way a daemon does — the dataset
// parsed from its adjacency file, handed to ServeRouter, dropped — and
// returns a weak pointer to that graph beside the router.
//
//go:noinline
func serveRouterFromFile(t *testing.T, file []byte, spec grouting.RouterSpec) (*grouting.RouterServer, weak.Pointer[grouting.Graph]) {
	g, err := gen.ReadAdjacency(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	spec.Graph = g
	rs, err := grouting.ServeRouter("127.0.0.1:0", spec)
	if err != nil {
		t.Fatal(err)
	}
	return rs, weak.Make(g)
}

// reachable reports whether wp's target is still alive. It is its own frame
// on purpose: read in the measuring function, the strong pointer Value
// returns kept the graph alive across the collections that follow.
//
//go:noinline
func reachable(wp weak.Pointer[grouting.Graph]) bool { return wp.Value() != nil }

// TestMemoryBudget is the per-role memory budget `make membudget` prints: a
// loopback deployment of the benchmark's shape (2 shards, 3 processors, one
// router, the 60 k-node WebGraph preset), each role measured on its own as
// the difference in live memory around its construction and a burst of
// 2,000 hotspot queries (a router: around its closing, after both).
// Everything shares one process here, so the figures
// are what each role keeps, without the ≈ 10 MiB a Go daemon costs empty.
// What it asserts is the router's: a router holds routing tables — at most
// twice Stats().RoutingTableBytes plus 4 MiB of connections and counters —
// never a second copy of the data set.
func TestMemoryBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("memory measurements are meaningless under the race detector")
	}
	ctx := context.Background()
	g := grouting.GenerateDataset(grouting.WebGraph, 1.0, 3)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{NumHotspots: 100, QueriesPerHotspot: 20, R: 2, H: 2, Seed: 3})
	var file bytes.Buffer
	if err := gen.WriteAdjacency(&file, g); err != nil {
		t.Fatal(err)
	}
	burst := func(routerAddr string) {
		t.Helper()
		c, err := grouting.Dial(ctx, routerAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, q := range qs {
			if _, err := c.Execute(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}

	mark := markMem()
	var storage []string
	for i := 0; i < 2; i++ {
		ss, err := grouting.ServeStorage("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		storage = append(storage, ss.Addr())
	}
	if err := grouting.LoadStorageReplicated(ctx, g, storage, 1); err != nil {
		t.Fatal(err)
	}
	retained, allocated := mark.since()
	t.Logf("membudget: storage x2      retained %5.1f MiB, allocated %6.1f MiB (construction + load of %d records)", retained, allocated, g.NumNodes())

	// The processors' figure includes the graph-less hash router the burst
	// goes through: a listener, six connections.
	mark = markMem()
	var procs []string
	for i := 0; i < 3; i++ {
		ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{Storage: storage, CacheBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		procs = append(procs, ps.Addr())
	}
	bare, err := grouting.ServeRouter("127.0.0.1:0", grouting.RouterSpec{Processors: procs, Policy: grouting.PolicyHash})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	burst(bare.Addr())
	retained, allocated = mark.since()
	t.Logf("membudget: processor x3    retained %5.1f MiB, allocated %6.1f MiB (construction + %d queries, caches warm)", retained, allocated, len(qs))

	// A router's figure is what goes away with it: the burst also moves the
	// processors' caches (another policy sends a query elsewhere), so live
	// memory is compared just before and just after the router is closed.
	for _, policy := range []grouting.Policy{grouting.PolicyHash, grouting.PolicyLandmark, grouting.PolicyEmbed} {
		mark = markMem()
		rs, wp := serveRouterFromFile(t, file.Bytes(), grouting.RouterSpec{Processors: procs, Policy: policy, Seed: 3, Storage: storage})
		_, allocated = mark.since()
		burst(rs.Addr())
		snap, err := rs.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		graphHeld := reachable(wp)
		serving := markMem()
		rs.Close()
		rs = nil
		retained = (float64(serving.live) - float64(markMem().live)) / (1 << 20)
		tables := float64(snap.RoutingTableBytes) / (1 << 20)
		var graphMiB, landmarkMiB, coordMiB float64
		if graphHeld {
			graphMiB = float64(16*g.NumEdges()+48*g.NumNodes()) / (1 << 20)
		}
		if policy == grouting.PolicyEmbed {
			coordMiB = tables
		} else {
			landmarkMiB = tables
		}
		t.Logf("membudget: router/%-8v retained %5.1f MiB, allocated %6.1f MiB (graph %.1f, landmark index + d(u,p) %.1f, coordinates %.1f, everything else %.1f)",
			policy, retained, allocated, graphMiB, landmarkMiB, coordMiB, retained-graphMiB-tables)
		if budget := 2*tables + 4; retained > budget {
			t.Errorf("router under %v retains %.1f MiB, budget %.1f (2 x %.1f MiB of routing tables + 4)", policy, retained, budget, tables)
		}
	}
	runtime.KeepAlive(g)
}
