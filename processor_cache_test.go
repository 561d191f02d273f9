package grouting_test

import (
	"context"
	"math"
	"testing"

	grouting "repro"
)

// TestProcessorCacheTwoTransports: one seeded hotspot sequence, sent by a
// serial client through the virtual-time engine and through a loopback
// deployment, leaves every processor's cache in the same state on both —
// the same misses, inserts, evictions and resident bytes — because both
// engines fetch through one cache step and charge a record one size. Hits
// are reported, not compared: the networked processor probes a query's node
// before the traversal, whose first level then hits it again, so over TCP a
// processor counts one more hit per query it executed.
func TestProcessorCacheTwoTransports(t *testing.T) {
	const procs, cacheBytes = 3, 64 << 10
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 12, QueriesPerHotspot: 8, R: 2, H: 2, Seed: 3,
	})
	ctx := context.Background()
	run := func(policy grouting.Policy) (local, tcp grouting.Stats) {
		sys, err := grouting.New(g,
			grouting.WithProcessors(procs),
			grouting.WithStorageServers(2),
			grouting.WithPolicy(policy),
			grouting.WithCacheBytes(cacheBytes),
			grouting.WithSeed(7),
		)
		if err != nil {
			t.Fatal(err)
		}
		lc, err := grouting.NewLocalClient(sys)
		if err != nil {
			t.Fatal(err)
		}
		defer lc.Close()
		var snaps [2]grouting.Stats
		for i, c := range []grouting.Client{lc, startTCPClusterCache(t, g, 2, procs, policy, cacheBytes)} {
			for _, q := range qs {
				if _, err := c.Execute(ctx, q); err != nil {
					t.Fatalf("%v, client %d, query %d: %v", policy, i, q.ID, err)
				}
			}
			if snaps[i], err = c.Stats(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return snaps[0], snaps[1]
	}

	local, tcp := run(grouting.PolicyHash)
	for p := range procs {
		l, r := local.PerProc[p].Cache, tcp.PerProc[p].Cache
		t.Logf("hash, processor %d: %d queries, hits %d virtual-time / %d tcp, misses %d, evictions %d, %d B resident",
			p, tcp.PerProc[p].Executed, l.Hits, r.Hits, r.Misses, r.Evictions, r.CurrentBytes)
		if l.Misses != r.Misses || l.Inserts != r.Inserts || l.Evictions != r.Evictions || l.CurrentBytes != r.CurrentBytes {
			t.Errorf("processor %d: virtual-time cache %+v, tcp %+v; want equal misses, inserts, evictions and bytes", p, l, r)
		}
	}
	if local.Cache.Evictions == 0 {
		t.Fatal("no processor cache ever filled: the comparison says nothing about capacity")
	}

	// Embed routes through a table each transport builds for itself, so its
	// hit rates are held to a tolerance; the TCP rate leaves out the probes.
	const tolerance = 0.02
	local, tcp = run(grouting.PolicyEmbed)
	probes := int64(len(qs))
	lr := local.Cache.HitRate()
	tr := float64(tcp.Cache.Hits-probes) / float64(tcp.Cache.Touches()-probes)
	t.Logf("embed hit rate: %.4f virtual-time, %.4f tcp without the probes (%.4f with them); tolerance %.2f",
		lr, tr, tcp.Cache.HitRate(), tolerance)
	if math.Abs(lr-tr) > tolerance {
		t.Errorf("embed hit rates differ by %.4f across transports, over the %.2f tolerance", math.Abs(lr-tr), tolerance)
	}
}
