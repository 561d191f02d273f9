package grouting_test

import (
	"context"
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
// The same list also runs through RunWorkload, the third engine, built from
// the same Config. Its queue and steal loop places queries differently from a
// serial client, so its per-processor executions and cache counters are
// logged, not compared. "point_cold" is the repository benchmark's
// point_cold in miniature: embed routing, three processors, a total cache of
// one eighth of the stored bytes.
func TestProcessorCacheTwoTransports(t *testing.T) {
	const procs = 3
	small := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
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
	}{
		{"hash", small, grouting.PolicyHash, grouting.WorkloadSpec{NumHotspots: 12, QueriesPerHotspot: 8, R: 2, H: 2, Seed: 3}, 64 << 10},
		{"embed", small, grouting.PolicyEmbed, grouting.WorkloadSpec{NumHotspots: 12, QueriesPerHotspot: 8, R: 2, H: 2, Seed: 3}, 64 << 10},
		{"point_cold", cold, grouting.PolicyEmbed, grouting.WorkloadSpec{NumHotspots: 40, QueriesPerHotspot: 10, R: 2, H: 2, Seed: 5}, stored / 8 / procs},
	}
	ctx := context.Background()
	for _, tc := range cases {
		cfg := grouting.Config{
			Processors: procs, StorageServers: 2, Policy: tc.policy, CacheBytes: tc.cacheB, Seed: 7,
		}
		qs := grouting.HotspotWorkload(tc.g, tc.spec)
		lc, remote := twoTransports(t, tc.g, cfg)
		var snaps [2]grouting.Stats
		for i, c := range []grouting.Client{lc, remote} {
			for _, q := range qs {
				if _, err := c.Execute(ctx, q); err != nil {
					t.Fatalf("%s, client %d, query %d: %v", tc.name, i, q.ID, err)
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
