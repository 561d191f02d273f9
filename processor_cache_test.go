package grouting_test

import (
	"context"
	"slices"
	"testing"

	grouting "repro"
	"repro/internal/gstore"
)

// TestProcessorCacheTwoTransports: one seeded hotspot sequence, sent by a
// serial client through the virtual-time engine and through a loopback
// deployment, leaves every processor with the same routed queries and its
// cache in the same state on both — the same hits, misses, inserts,
// evictions and resident bytes — because both transports are built from one
// Config, build their routing tables through one function, decide through
// one router and fetch through one cache step that charges a record one
// size. The networked processor's existence check rides the traversal's own
// first read of the query node, and a query that reads nothing (a
// reachability to itself, a walk that only restarts) checks without
// touching the cache, as the virtual-time client does.
//
// The same list also runs through RunWorkload, the closed-loop driver over a
// fresh session built from the same Config. Its queue and steal loop places
// queries differently from a serial client, so its per-processor executions
// and cache counters are logged, not compared. "point_cold" is the
// repository benchmark's point_cold in miniature: embed routing, three
// processors, a total cache of one eighth of the stored bytes. "hash-writes"
// is "hash" with a stream of writes over the records the caches hold after
// the warm pass — edges added, one under a second label beside the first,
// removed, and a node relabelled — then NeighborAgg, RandomWalk and
// Reachability on the written nodes and the hotspot list again: both
// transports update their cached copies with the same edits, so the
// counters still agree, and every answer is the oracle's.
func TestProcessorCacheTwoTransports(t *testing.T) {
	const procs = 3
	small := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	written := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	cold := grouting.GenerateDataset(grouting.WebGraph, 0.05, 5)
	var stored int64
	for _, u := range cold.Nodes() {
		stored += int64(len(gstore.Encode(nil, gstore.RecordOf(cold, u))))
	}
	cases := []struct {
		name   string
		g      *grouting.Graph
		policy grouting.Policy
		spec   grouting.WorkloadSpec
		cacheB int64
		writes bool
	}{
		{"hash", small, grouting.PolicyHash, grouting.WorkloadSpec{NumHotspots: 12, QueriesPerHotspot: 8, R: 2, H: 2, Seed: 3}, 64 << 10, false},
		{"embed", small, grouting.PolicyEmbed, grouting.WorkloadSpec{NumHotspots: 12, QueriesPerHotspot: 8, R: 2, H: 2, Seed: 3}, 64 << 10, false},
		{"point_cold", cold, grouting.PolicyEmbed, grouting.WorkloadSpec{NumHotspots: 40, QueriesPerHotspot: 10, R: 2, H: 2, Seed: 5}, stored / 8 / procs, false},
		{"hash-writes", written, grouting.PolicyHash, grouting.WorkloadSpec{NumHotspots: 12, QueriesPerHotspot: 8, R: 2, H: 2, Seed: 3}, 64 << 10, true},
	}
	ctx := context.Background()
	for _, tc := range cases {
		cfg := grouting.Config{
			Processors: procs, StorageServers: 2, Policy: tc.policy, CacheBytes: tc.cacheB, Seed: 7,
		}
		qs := grouting.HotspotWorkload(tc.g, tc.spec)
		var muts []grouting.Mutation
		var reads []grouting.Query
		oracle := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
		if tc.writes {
			muts, reads = writesOver(t, tc.g, qs)
			for _, m := range muts {
				if err := m.Apply(oracle); err != nil {
					t.Fatal(err)
				}
			}
		}
		lc, remote := twoTransports(t, tc.g, cfg)
		var snaps [2]grouting.Stats
		for i, c := range []grouting.Client{lc, remote} {
			for _, q := range qs {
				if _, err := c.Execute(ctx, q); err != nil {
					t.Fatalf("%s, client %d, query %d: %v", tc.name, i, q.ID, err)
				}
			}
			if tc.writes {
				if n, err := c.Mutate(ctx, muts); err != nil || n != len(muts) {
					t.Fatalf("%s, client %d: applied %d of %d writes: %v", tc.name, i, n, len(muts), err)
				}
				for _, q := range append(reads, qs...) {
					res, err := c.Execute(ctx, q)
					if want := grouting.Answer(oracle, q); err != nil || res != want {
						t.Fatalf("%s, client %d, %v on %d after the writes: %+v, %v; want %+v", tc.name, i, q.Type, q.Node, res, err, want)
					}
				}
			}
			var err error
			if snaps[i], err = c.Stats(ctx); err != nil {
				t.Fatal(err)
			}
		}
		sys, err := grouting.NewSystem(tc.g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWorkload(qs)
		if err != nil {
			t.Fatal(err)
		}
		local, tcp := snaps[0], snaps[1]
		for p := range procs {
			lp, rp := local.PerProc[p], tcp.PerProc[p]
			l, r := lp.Cache, rp.Cache
			t.Logf("%s, processor %d: %d queries, hits %d, misses %d, evictions %d, %d B resident",
				tc.name, p, rp.Assigned, r.Hits, r.Misses, r.Evictions, r.CurrentBytes)
			w := rep.PerProc[p]
			t.Logf("%s, processor %d: RunWorkload executed %d, hits %d, misses %d",
				tc.name, p, w.Executed, w.Cache.Hits, w.Cache.Misses)
			if lp.Assigned != rp.Assigned || l != r {
				t.Errorf("%s, processor %d: virtual-time %d assigned, cache %+v; tcp %d assigned, cache %+v; want equal",
					tc.name, p, lp.Assigned, l, rp.Assigned, r)
			}
		}
		if local.Cache.Evictions == 0 {
			t.Fatalf("%s: no processor cache ever filled: the comparison says nothing about capacity", tc.name)
		}
	}
}

// writesOver returns writes over three nodes the hotspot queries qs read —
// a and c unlinked, b with an out-edge — that each rewrite records: a->c
// added, then again under the label "rel" (a parallel labelled edge), b's
// lowest out-edge removed, c relabelled, and the unlabelled a->c removed
// again; and the reads of the written nodes that follow them.
func writesOver(t *testing.T, g *grouting.Graph, qs []grouting.Query) ([]grouting.Mutation, []grouting.Query) {
	t.Helper()
	var nodes []grouting.NodeID
	for _, q := range qs {
		if !slices.Contains(nodes, q.Node) {
			nodes = append(nodes, q.Node)
		}
	}
	var a, b, c grouting.NodeID
	found := false
	for i := 0; i < len(nodes) && !found; i++ {
		for j := 0; j < len(nodes) && !found; j++ {
			for k := 0; k < len(nodes) && !found; k++ {
				a, b, c = nodes[i], nodes[j], nodes[k]
				found = a != b && b != c && a != c && !g.HasEdge(a, c) && len(g.OutEdges(b)) > 0
			}
		}
	}
	if !found {
		t.Fatal("no hotspot nodes to write")
	}
	muts := []grouting.Mutation{
		{Op: grouting.MutAddEdge, Node: a, To: c},
		{Op: grouting.MutAddEdge, Node: a, To: c, Label: "rel"},
		{Op: grouting.MutRemoveEdge, Node: b, To: g.OutEdges(b)[0].To},
		{Op: grouting.MutUpsertNode, Node: c, Label: "tagged"},
		{Op: grouting.MutRemoveEdge, Node: a, To: c},
	}
	var reads []grouting.Query
	for i, n := range []grouting.NodeID{a, b, c} {
		reads = append(reads,
			grouting.Query{ID: 3 * i, Type: grouting.NeighborAgg, Node: n, Hops: 2, Dir: grouting.Out},
			grouting.Query{ID: 3*i + 1, Type: grouting.RandomWalk, Node: n, Hops: 8, RestartProb: 0.15, Dir: grouting.Out, Seed: int64(n)},
			grouting.Query{ID: 3*i + 2, Type: grouting.Reachability, Node: n, Target: a, Hops: 3, Dir: grouting.Out},
		)
	}
	return muts, reads
}

// TestWarmPatternTwoTransports: a pattern subtask materialises a ball two
// levels deep and joins over every level's records, so the records of its
// first fetch must survive the fetches after it. Run warm — a second time,
// every record a cache hit — on both transports, each two-edge path anchored
// at a node returns the oracle's match count, and the counts are not all
// zero.
func TestWarmPatternTwoTransports(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	var qs []grouting.Query
	for i, anchor := range g.Nodes()[1:9] { // an Anchor of 0 means none
		qs = append(qs, grouting.Query{
			ID: i, Type: grouting.PatternMatch, Node: anchor, Dir: grouting.Out,
			Pattern: &grouting.Pattern{
				Nodes: []grouting.PatternNode{{Anchor: anchor}, {}, {}},
				Edges: []grouting.PatternEdge{{From: 0, To: 1}, {From: 1, To: 2}},
			},
		})
	}
	ctx := context.Background()
	local, remote := twoTransports(t, g, grouting.Config{
		Processors: 2, StorageServers: 2, Policy: grouting.PolicyHash, CacheBytes: 1 << 20, Seed: 1,
	})
	matched := 0
	for _, c := range []grouting.Client{local, remote} {
		for pass := range 2 {
			for _, q := range qs {
				got, err := c.Execute(ctx, q)
				if want := grouting.Answer(g, q); err != nil || got != want {
					t.Fatalf("pass %d, pattern at %d: %+v, %v; want %+v", pass, q.Node, got, err, want)
				}
				matched += got.Matches
			}
		}
		if st, err := c.Stats(ctx); err != nil || st.Cache.Hits == 0 {
			t.Fatalf("no cache hits (%v): the warm pass read nothing from the cache", err)
		}
	}
	if matched == 0 {
		t.Fatal("no anchor has a two-edge path: the test checks nothing")
	}
}
