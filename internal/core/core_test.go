package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/simnet"
)

// testConfig returns a small, fast configuration for unit tests.
func testConfig(policy Policy) Config {
	return Config{
		Processors:     4,
		StorageServers: 2,
		Policy:         policy,
		Landmarks:      8,
		MinSeparation:  1,
		Dimensions:     4,
		Seed:           7,
	}
}

// testGraph has the locality structure (window-local links) the smart
// routing schemes exploit; a pure preferential-attachment graph would be a
// small world with a flat distance landscape where no router can create
// topology-aware locality.
func testGraph() *graph.Graph {
	return gen.LocalWeb(2000, 8, 80, 0.005, 11)
}

func testWorkload(g *graph.Graph) []query.Query {
	return query.Hotspot(g, query.WorkloadSpec{
		NumHotspots: 12, QueriesPerHotspot: 5, R: 2, H: 2, Seed: 3,
	})
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Processors != 7 || c.StorageServers != 4 {
		t.Fatalf("tier defaults: %d/%d, want 7/4 (paper setup)", c.Processors, c.StorageServers)
	}
	if c.Landmarks != 96 || c.MinSeparation != 3 || c.Dimensions != 10 {
		t.Fatalf("smart-routing defaults: %d/%d/%d", c.Landmarks, c.MinSeparation, c.Dimensions)
	}
	if c.LoadFactor != 20 || c.Alpha != 0.5 {
		t.Fatalf("tuning defaults: %v/%v", c.LoadFactor, c.Alpha)
	}
	if c.CacheBytes != 4<<30 {
		t.Fatalf("cache default: %d", c.CacheBytes)
	}
	if c.Network.Name != "infiniband" {
		t.Fatalf("network default: %s", c.Network.Name)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Processors: -1},
		{StorageServers: -2},
		{Alpha: 2},
		{PreprocessFraction: 1.5},
		{Policy: PolicyLandmark, Landmarks: 1},
	}
	for i, c := range bad {
		if _, err := NewSystem(testGraph(), c); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestPolicyString(t *testing.T) {
	want := map[Policy]string{
		PolicyNoCache: "nocache", PolicyNextReady: "nextready", PolicyHash: "hash",
		PolicyLandmark: "landmark", PolicyEmbed: "embed", Policy(9): "Policy(9)",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

// TestResultsMatchOracle is the headline correctness test: every policy's
// distributed execution must agree exactly with the in-memory oracle on
// all three query types.
func TestResultsMatchOracle(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	for _, policy := range Policies {
		sys, err := NewSystem(g, testConfig(policy))
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		rep, err := sys.RunWorkload(qs)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for _, q := range qs {
			want := query.Answer(g, q)
			got := rep.Results[q.ID]
			if got != want {
				t.Fatalf("%v: query %d (%v on node %d): got %+v, want %+v",
					policy, q.ID, q.Type, q.Node, got, want)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	sys, err := NewSystem(g, testConfig(PolicyEmbed))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.CacheHits != b.CacheHits || a.CacheMisses != b.CacheMisses {
		t.Fatalf("identical runs differ:\n%+v\n%+v", a, b)
	}
	if a.ThroughputQPS != b.ThroughputQPS {
		t.Fatalf("throughput differs: %v vs %v", a.ThroughputQPS, b.ThroughputQPS)
	}
}

func TestConservationHitsPlusMisses(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	var touched []int64
	for _, policy := range []Policy{PolicyNextReady, PolicyHash, PolicyLandmark} {
		sys, err := NewSystem(g, testConfig(policy))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWorkload(qs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Touched != rep.CacheHits+rep.CacheMisses {
			t.Fatalf("%v: touched %d != hits %d + misses %d", policy, rep.Touched, rep.CacheHits, rep.CacheMisses)
		}
		touched = append(touched, rep.Touched)
	}
	// The total records touched is a workload property, identical across
	// policies (the paper's "Cache Hits + Cache Misses = 52M" line).
	for i := 1; i < len(touched); i++ {
		if touched[i] != touched[0] {
			t.Fatalf("touched varies across policies: %v", touched)
		}
	}
}

func TestNoCacheHasNoHits(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	sys, err := NewSystem(g, testConfig(PolicyNoCache))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 0 {
		t.Fatalf("no-cache run recorded %d hits", rep.CacheHits)
	}
	if rep.CacheMisses == 0 {
		t.Fatal("no-cache run recorded no storage fetches")
	}
}

func TestSmartRoutingBeatsBaselinesOnHits(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	hits := map[Policy]int64{}
	for _, policy := range []Policy{PolicyNextReady, PolicyHash, PolicyLandmark, PolicyEmbed} {
		sys, err := NewSystem(g, testConfig(policy))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWorkload(qs)
		if err != nil {
			t.Fatal(err)
		}
		hits[policy] = rep.CacheHits
	}
	// The paper's central claim (Figures 8b, 14): smart routing achieves
	// more cache hits than the locality-oblivious baselines.
	if hits[PolicyLandmark] <= hits[PolicyNextReady] {
		t.Errorf("landmark hits %d <= nextready hits %d", hits[PolicyLandmark], hits[PolicyNextReady])
	}
	if hits[PolicyEmbed] <= hits[PolicyNextReady] {
		t.Errorf("embed hits %d <= nextready hits %d", hits[PolicyEmbed], hits[PolicyNextReady])
	}
}

func TestStealingBalancesSkew(t *testing.T) {
	g := testGraph()
	// Adversarial workload for hash routing: every query node ≡ 0 mod P,
	// so hash sends everything to processor 0.
	var qs []query.Query
	id := 0
	for n := graph.NodeID(0); int(n) < 400; n += 4 {
		if !g.Exists(n) {
			continue
		}
		qs = append(qs, query.Query{ID: id, Type: query.NeighborAgg, Node: n, Hops: 1, Dir: graph.Both})
		id++
	}
	cfgSteal := testConfig(PolicyHash)
	sysSteal, err := NewSystem(g, cfgSteal)
	if err != nil {
		t.Fatal(err)
	}
	repSteal, err := sysSteal.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	cfgNo := cfgSteal
	cfgNo.DisableStealing = true
	sysNo, err := NewSystem(g, cfgNo)
	if err != nil {
		t.Fatal(err)
	}
	repNo, err := sysNo.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	if repSteal.Stolen == 0 {
		t.Fatal("no queries stolen under fully skewed workload")
	}
	if repSteal.Makespan >= repNo.Makespan {
		t.Fatalf("stealing makespan %v >= non-stealing %v", repSteal.Makespan, repNo.Makespan)
	}
	// Without stealing, processor 0 did everything.
	if repNo.PerProc[0].Executed != len(qs) {
		t.Fatalf("expected total skew without stealing: %+v", repNo.PerProc)
	}
}

func TestMoreStorageServersNoSlower(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	tput := func(servers int) float64 {
		cfg := testConfig(PolicyNoCache)
		cfg.StorageServers = servers
		sys, err := NewSystem(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWorkload(qs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.ThroughputQPS
	}
	one, four := tput(1), tput(4)
	if four <= one {
		t.Fatalf("throughput with 4 storage servers (%v) <= with 1 (%v)", four, one)
	}
}

func TestEthernetSlowerThanInfiniband(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	run := func(p simnet.Profile) float64 {
		cfg := testConfig(PolicyHash)
		cfg.Network = p
		sys, err := NewSystem(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWorkload(qs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.ThroughputQPS
	}
	ib, eth := run(simnet.Infiniband()), run(simnet.Ethernet())
	if eth >= ib {
		t.Fatalf("ethernet throughput %v >= infiniband %v", eth, ib)
	}
}

func TestDuplicateQueryIDsRejected(t *testing.T) {
	g := testGraph()
	sys, err := NewSystem(g, testConfig(PolicyHash))
	if err != nil {
		t.Fatal(err)
	}
	qs := []query.Query{{ID: 0, Node: 1, Hops: 1}, {ID: 0, Node: 2, Hops: 1}}
	if _, err := sys.RunWorkload(qs); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestPreprocessFractionStillCorrect(t *testing.T) {
	// Figure 10: preprocessing on 30% of the graph degrades routing
	// quality but never correctness.
	g := testGraph()
	qs := testWorkload(g)
	cfg := testConfig(PolicyLandmark)
	cfg.PreprocessFraction = 0.3
	sys, err := NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if rep.Results[q.ID] != query.Answer(g, q) {
			t.Fatalf("query %d wrong under partial preprocessing", q.ID)
		}
	}
}

func TestAddNodeIncremental(t *testing.T) {
	g := testGraph()
	sys, err := NewSystem(g, testConfig(PolicyEmbed))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Attach a new node to two existing ones through the write path.
	u := g.MaxNodeID()
	muts := []query.Mutation{
		{Op: query.MutUpsertNode, Node: u, Label: "newbie"},
		{Op: query.MutAddEdge, Node: 5, To: u},
		{Op: query.MutAddEdge, Node: u, To: 6},
	}
	if _, err := ses.Mutate(muts...); err != nil {
		t.Fatal(err)
	}
	mirror(t, g, muts...)
	q := query.Query{Type: query.NeighborAgg, Node: u, Hops: 2, Dir: graph.Both}
	res, _, err := ses.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.Answer(g, q); res != want {
		t.Fatalf("query on incrementally added node: got %+v, want %+v", res, want)
	}
	// The embedding now covers u.
	if sys.Embedding().Coords(u) == nil {
		t.Fatal("new node has no embedding coordinates")
	}
}

func TestUpdateEdgeRefreshesStorage(t *testing.T) {
	g := testGraph()
	sys, err := NewSystem(g, testConfig(PolicyLandmark))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Mutate(query.Mutation{Op: query.MutAddEdge, Node: 10, To: 20}); err != nil {
		t.Fatal(err)
	}
	q := query.Query{Type: query.Reachability, Node: 10, Target: 20, Hops: 1}
	res, _, err := ses.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable {
		t.Fatal("storage missed the new edge after the mutation")
	}
}

func TestSessionCacheWarmth(t *testing.T) {
	g := testGraph()
	sys, err := NewSystem(g, testConfig(PolicyHash))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Type: query.NeighborAgg, Node: 3, Hops: 2, Dir: graph.Both}
	_, cold, err := ses.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := ses.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Fatalf("repeat query not faster: cold=%v warm=%v", cold, warm)
	}
	hits, misses := ses.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("session stats: hits=%d misses=%d", hits, misses)
	}
	if ses.Queries() != 2 {
		t.Fatalf("Queries() = %d", ses.Queries())
	}
}

func TestPrepStatsPopulated(t *testing.T) {
	g := testGraph()
	sys, err := NewSystem(g, testConfig(PolicyEmbed))
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Prep()
	if p.Landmarks < 2 {
		t.Fatalf("prep landmarks = %d", p.Landmarks)
	}
	if p.LandmarkBytes <= 0 || p.EmbedBytes <= 0 || p.IndexBytes <= 0 || p.GraphBytes <= 0 {
		t.Fatalf("prep byte stats missing: %+v", p)
	}
	if p.BFSTime <= 0 {
		t.Fatalf("BFS time not recorded: %+v", p)
	}
}

func TestPerProcReports(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	sys, err := NewSystem(g, testConfig(PolicyNextReady))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, pr := range rep.PerProc {
		total += pr.Executed
	}
	if total != len(qs) {
		t.Fatalf("per-proc executed sums to %d, want %d", total, len(qs))
	}
	if rep.Makespan <= 0 || rep.ThroughputQPS <= 0 {
		t.Fatalf("report totals: %+v", rep)
	}
}

// TestRunWorkloadMatchesSessionAtOneProcessor pins the closed-loop driver to
// the session's dispatch step: with one processor there is no queue to
// reorder and nothing to steal, so RunWorkload must give a serial session's
// answers, cache counters and clock over the same list.
func TestRunWorkloadMatchesSessionAtOneProcessor(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	for _, policy := range []Policy{PolicyHash, PolicyLandmark, PolicyEmbed} {
		cfg := testConfig(policy)
		cfg.Processors, cfg.CacheBytes = 1, 16<<10
		sys, err := NewSystem(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWorkload(qs)
		if err != nil {
			t.Fatal(err)
		}
		ses, err := sys.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			res, _, err := ses.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if res != rep.Results[q.ID] {
				t.Fatalf("%v: query %d: RunWorkload %+v, session %+v", policy, q.ID, rep.Results[q.ID], res)
			}
		}
		hits, misses := ses.Stats()
		if rep.CacheHits != hits || rep.CacheMisses != misses || rep.Makespan != ses.Now() {
			t.Fatalf("%v: RunWorkload %d hits / %d misses / %v, session %d / %d / %v",
				policy, rep.CacheHits, rep.CacheMisses, rep.Makespan, hits, misses, ses.Now())
		}
		t.Logf("%v: %d hits, %d misses, makespan %v", policy, hits, misses, rep.Makespan)
	}
}
