package grouting_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	grouting "repro"
)

// bandStrategy is the test's custom routing strategy, registered through
// the public API exactly as a downstream user would: it partitions the
// node-id space into contiguous bands, one per processor. It is
// deterministic and load-independent, so both transports must produce
// identical per-processor assignment counts for the same query stream.
type bandStrategy struct {
	bandSize uint64
}

func newBandStrategy(res grouting.StrategyResources) (grouting.Strategy, error) {
	if res.Graph == nil {
		return nil, fmt.Errorf("band strategy needs the graph to size its bands")
	}
	n := uint64(res.Graph.MaxNodeID())
	band := (n + uint64(res.Procs) - 1) / uint64(res.Procs)
	if band == 0 {
		band = 1
	}
	return &bandStrategy{bandSize: band}, nil
}

func (s *bandStrategy) Name() string { return "bands" }

func (s *bandStrategy) Pick(q grouting.Query, loads []int) int {
	p := int(uint64(q.Node) / s.bandSize)
	if p >= len(loads) {
		p = len(loads) - 1
	}
	return p
}

func (s *bandStrategy) Observe(grouting.Query, int) {}
func (s *bandStrategy) DecisionUnits() int          { return 1 }

var policyBands = grouting.RegisterStrategy("bands", newBandStrategy)

// TestCustomStrategyTwoTransports is the redesign's acceptance test: a
// strategy registered via the public API routes queries on BOTH transports
// with identical results and identical per-processor assignment counts,
// and Client.Stats() reports non-zero cache and routing counters on each.
func TestCustomStrategyTwoTransports(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 9, QueriesPerHotspot: 5, R: 2, H: 2, Seed: 3,
	})
	ctx := context.Background()

	byName, err := grouting.ParsePolicy("bands")
	if err != nil {
		t.Fatal(err)
	}
	if byName != policyBands {
		t.Fatalf("ParsePolicy resolved to %v, want %v", byName, policyBands)
	}
	local, remote := twoTransports(t, g, grouting.Config{Processors: 3, StorageServers: 2, Policy: byName, Seed: 1})

	clients := []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}}

	var results [2][]grouting.Result
	var snaps [2]grouting.Stats
	for i, tc := range clients {
		results[i] = make([]grouting.Result, len(qs))
		for _, q := range qs {
			res, err := tc.c.Execute(ctx, q)
			if err != nil {
				t.Fatalf("%s: query %d: %v", tc.name, q.ID, err)
			}
			if want := grouting.Answer(g, q); res != want {
				t.Fatalf("%s: query %d: got %+v, want %+v", tc.name, q.ID, res, want)
			}
			results[i][q.ID] = res
		}
		snap, err := tc.c.Stats(ctx)
		if err != nil {
			t.Fatalf("%s: stats: %v", tc.name, err)
		}
		snaps[i] = snap
	}

	for id := range qs {
		if results[0][id] != results[1][id] {
			t.Fatalf("query %d differs between transports: %+v vs %+v", id, results[0][id], results[1][id])
		}
	}

	for i, tc := range clients {
		snap := snaps[i]
		if snap.Policy != "bands" {
			t.Fatalf("%s: policy = %q, want bands", tc.name, snap.Policy)
		}
		if snap.Strategy != "bands" {
			t.Fatalf("%s: strategy = %q, want bands", tc.name, snap.Strategy)
		}
		if snap.Queries != int64(len(qs)) {
			t.Fatalf("%s: queries = %d, want %d", tc.name, snap.Queries, len(qs))
		}
		if snap.Cache.Touches() == 0 {
			t.Fatalf("%s: cache counters all zero", tc.name)
		}
		if snap.RoutingNanos.Count != int64(len(qs)) {
			t.Fatalf("%s: routing decisions = %d, want %d", tc.name, snap.RoutingNanos.Count, len(qs))
		}
	}

	// The strategy is deterministic and load-independent, so the
	// per-processor assignment counts must agree exactly across transports.
	if len(snaps[0].PerProc) != len(snaps[1].PerProc) {
		t.Fatalf("per-proc lengths differ: %d vs %d", len(snaps[0].PerProc), len(snaps[1].PerProc))
	}
	var spread int
	for p := range snaps[0].PerProc {
		a0, a1 := snaps[0].PerProc[p].Assigned, snaps[1].PerProc[p].Assigned
		if a0 != a1 {
			t.Fatalf("processor %d assigned %d locally vs %d over tcp\nlocal: %+v\ntcp: %+v",
				p, a0, a1, snaps[0].PerProc, snaps[1].PerProc)
		}
		if a0 > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("workload landed on %d processor(s); band routing should spread it", spread)
	}
}

// TestRouterBuildsAgree: a router started with ServeRouter builds its tables
// at one fixed shape (32 landmarks, separation 2, 8 dimensions), and a
// Config given that shape builds the same tables on either transport. One
// hotspot list, sent one Execute at a time, lands on the same processors
// through all three deployments — the same count on every processor — under
// both smart policies, and every answer is the oracle's.
func TestRouterBuildsAgree(t *testing.T) {
	const procs, seed = 3, 5
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, seed)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{NumHotspots: 10, QueriesPerHotspot: 10, R: 2, H: 2, Seed: seed})
	ctx := context.Background()

	var storage []string
	for range 2 {
		ss, err := grouting.ServeStorage("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ss.Close() })
		storage = append(storage, ss.Addr())
	}
	if err := grouting.LoadStorageReplicated(ctx, g, storage, 1); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for range procs {
		ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{Storage: storage, CacheBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Close() })
		addrs = append(addrs, ps.Addr())
	}

	for _, policy := range []grouting.Policy{grouting.PolicyEmbed, grouting.PolicyLandmark} {
		rs, err := grouting.ServeRouter("127.0.0.1:0", grouting.RouterSpec{Processors: addrs, Policy: policy, Graph: g, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		served, err := grouting.Dial(ctx, rs.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { served.Close() })
		cfg := grouting.Config{
			Processors: procs, StorageServers: 2, Policy: policy, Seed: seed,
			Landmarks: 32, MinSeparation: 2, Dimensions: 8,
		}
		local, loopback := twoTransports(t, g, cfg)

		deployments := []struct {
			name string
			c    grouting.Client
		}{{"ServeRouter", served}, {"Loopback", loopback}, {"NewSystem", local}}
		assigned := make([][]int64, len(deployments))
		for i, d := range deployments {
			for _, q := range qs {
				res, err := d.c.Execute(ctx, q)
				if want := grouting.Answer(g, q); err != nil || res != want {
					t.Fatalf("%v, %s: query %d: %+v, %v; want %+v", policy, d.name, q.ID, res, err, want)
				}
			}
			snap, err := d.c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, pp := range snap.PerProc {
				assigned[i] = append(assigned[i], pp.Assigned)
			}
			t.Logf("%v, %s: assigned %v", policy, d.name, assigned[i])
		}
		for i := 1; i < len(deployments); i++ {
			if !slices.Equal(assigned[i], assigned[0]) {
				t.Errorf("%v: %s assigned %v, %s assigned %v; want equal",
					policy, deployments[i].name, assigned[i], deployments[0].name, assigned[0])
			}
		}
	}
}

// TestParsePolicyRoundTrip: ParsePolicy is an exact inverse of
// Policy.String over every registered name — built-ins and public
// registrations alike — and unknown names produce the documented error
// listing the registry.
func TestParsePolicyRoundTrip(t *testing.T) {
	var names []string
	for _, info := range grouting.StrategyRegistry() {
		names = append(names, info.Name)
	}
	if len(names) < 7 { // 6 built-ins + this file's policyBands
		t.Fatalf("registry too small: %v", names)
	}
	for _, name := range names {
		p, err := grouting.ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if got := p.String(); got != name {
			t.Fatalf("round-trip broke: ParsePolicy(%q).String() = %q", name, got)
		}
	}
	// The built-in constants round-trip to themselves.
	for _, p := range []grouting.Policy{
		grouting.PolicyNoCache, grouting.PolicyNextReady, grouting.PolicyHash,
		grouting.PolicyLandmark, grouting.PolicyEmbed, grouting.PolicyStableHash, policyBands,
	} {
		back, err := grouting.ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%v.String()): %v", p, err)
		}
		if back != p {
			t.Fatalf("constant round-trip broke: %v -> %q -> %v", p, p.String(), back)
		}
	}

	_, err := grouting.ParsePolicy("bogus")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown policy "bogus"`) {
		t.Fatalf("error %q does not name the bad policy", msg)
	}
	for _, name := range names {
		if !strings.Contains(msg, name) {
			t.Fatalf("error %q does not list registered name %q", msg, name)
		}
	}
}

// TestRegisterStrategyPanics: misregistration is a loud programming error.
func TestRegisterStrategyPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  func()
	}{
		{"duplicate", func() { grouting.RegisterStrategy("bands", newBandStrategy) }},
		{"empty", func() { grouting.RegisterStrategy("", newBandStrategy) }},
		{"nil-ctor", func() { grouting.RegisterStrategy("nilctor", nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s registration did not panic", tc.name)
				}
			}()
			tc.reg()
		}()
	}
}

// TestStrategyRegistryListing: the registry listing carries the
// preprocessing requirements the daemons need to know about.
func TestStrategyRegistryListing(t *testing.T) {
	infos := grouting.StrategyRegistry()
	byName := map[string]grouting.StrategyInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	if in := byName["hash"]; in.NeedsLandmarks || in.NeedsEmbedding || in.Policy != grouting.PolicyHash {
		t.Fatalf("hash info = %+v", in)
	}
	if in := byName["landmark"]; !in.NeedsLandmarks || in.NeedsEmbedding {
		t.Fatalf("landmark info = %+v", in)
	}
	if in := byName["embed"]; !in.NeedsLandmarks || !in.NeedsEmbedding {
		t.Fatalf("embed info = %+v", in)
	}
	if in := byName["bands"]; in.NeedsLandmarks || in.Policy != policyBands {
		t.Fatalf("bands info = %+v", in)
	}
}
