package grouting_test

import (
	"context"
	"testing"

	grouting "repro"
)

// TestProcessorCacheTwoTransports: one seeded hotspot sequence, sent by a
// serial client through the virtual-time engine and through a loopback
// deployment, leaves every processor with the same routed queries and its
// cache in the same state on both — the same misses, inserts, evictions and
// resident bytes — because both transports are built from one Config, build
// their routing tables through one function, decide through one router and
// fetch through one cache step that charges a record one size. Hits are
// reported, not compared: the networked processor probes a query's node
// before the traversal, whose first level then hits it again, so over TCP a
// processor counts one more hit per query it executed.
func TestProcessorCacheTwoTransports(t *testing.T) {
	const procs = 3
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 12, QueriesPerHotspot: 8, R: 2, H: 2, Seed: 3,
	})
	ctx := context.Background()
	for _, policy := range []grouting.Policy{grouting.PolicyHash, grouting.PolicyEmbed} {
		lc, remote := twoTransports(t, g, grouting.Config{
			Processors: procs, StorageServers: 2, Policy: policy, CacheBytes: 64 << 10, Seed: 7,
		})
		var snaps [2]grouting.Stats
		for i, c := range []grouting.Client{lc, remote} {
			for _, q := range qs {
				if _, err := c.Execute(ctx, q); err != nil {
					t.Fatalf("%v, client %d, query %d: %v", policy, i, q.ID, err)
				}
			}
			var err error
			if snaps[i], err = c.Stats(ctx); err != nil {
				t.Fatal(err)
			}
		}
		local, tcp := snaps[0], snaps[1]
		for p := range procs {
			lp, rp := local.PerProc[p], tcp.PerProc[p]
			l, r := lp.Cache, rp.Cache
			t.Logf("%v, processor %d: %d queries, hits %d virtual-time / %d tcp, misses %d, evictions %d, %d B resident",
				policy, p, rp.Assigned, l.Hits, r.Hits, r.Misses, r.Evictions, r.CurrentBytes)
			if lp.Assigned != rp.Assigned || l.Misses != r.Misses || l.Inserts != r.Inserts ||
				l.Evictions != r.Evictions || l.CurrentBytes != r.CurrentBytes {
				t.Errorf("%v, processor %d: virtual-time %d assigned, cache %+v; tcp %d assigned, cache %+v; want equal assigned, misses, inserts, evictions and bytes",
					policy, p, lp.Assigned, l, rp.Assigned, r)
			}
		}
		if local.Cache.Evictions == 0 {
			t.Fatalf("%v: no processor cache ever filled: the comparison says nothing about capacity", policy)
		}
	}
}
