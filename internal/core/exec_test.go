package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/simnet"
)

func newTestSession(t *testing.T, g *graph.Graph, policy Policy) *Session {
	t.Helper()
	sys, err := NewSystem(g, testConfig(policy))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return ses
}

func TestQueryOnRemovedNode(t *testing.T) {
	g := testGraph()
	if err := g.RemoveNode(50); err != nil {
		t.Fatal(err)
	}
	// System built after removal: no record for node 50 in storage.
	ses := newTestSession(t, g, PolicyHash)
	for _, q := range []query.Query{
		{Type: query.NeighborAgg, Node: 50, Hops: 2, Dir: graph.Out},
		{Type: query.RandomWalk, Node: 50, Hops: 3, Dir: graph.Out, Seed: 1},
		{Type: query.Reachability, Node: 50, Target: 1, Hops: 3},
	} {
		res, _, err := ses.Execute(q)
		if err != nil {
			t.Fatalf("%v on removed node: %v", q.Type, err)
		}
		if want := query.Answer(g, q); res != want {
			t.Fatalf("%v on removed node: got %+v, want %+v", q.Type, res, want)
		}
	}
}

func TestLabelFilteredAggregation(t *testing.T) {
	g := graph.New()
	for i := 0; i < 30; i++ {
		label := "even"
		if i%2 == 1 {
			label = "odd"
		}
		g.AddNode(label)
	}
	for i := 0; i < 29; i++ {
		g.AddEdgeFast(graph.NodeID(i), graph.NodeID(i+1))
	}
	cfg := testConfig(PolicyHash)
	cfg.Processors = 2
	sys, err := NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		want  int
	}{
		{"even", 2}, {"odd", 2}, {"missing", 0},
	} {
		q := query.Query{Type: query.NeighborAgg, Node: 0, Hops: 4, Dir: graph.Out, CountLabel: c.label}
		res, _, err := ses.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != c.want {
			t.Fatalf("label %q count = %d, want %d", c.label, res.Count, c.want)
		}
		if oracle := query.Answer(g, q); res != oracle {
			t.Fatalf("label %q disagrees with oracle", c.label)
		}
	}
}

func TestNoBatchingSlower(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	batched := testConfig(PolicyNoCache)
	sysB, err := NewSystem(g, batched)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := sysB.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	perKey := testConfig(PolicyNoCache)
	perKey.NoBatching = true
	sysK, err := NewSystem(g, perKey)
	if err != nil {
		t.Fatal(err)
	}
	repK, err := sysK.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	if repK.MeanResponse <= repB.MeanResponse {
		t.Fatalf("per-key fetches (%v) not slower than batched (%v)", repK.MeanResponse, repB.MeanResponse)
	}
	// Results identical either way.
	for _, q := range qs {
		if repK.Results[q.ID] != repB.Results[q.ID] {
			t.Fatalf("query %d differs between fetch modes", q.ID)
		}
	}
}

func TestCacheCapacityMonotonicHits(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	hitsAt := func(capacity int64) int64 {
		cfg := testConfig(PolicyHash)
		cfg.CacheBytes = capacity
		sys, err := NewSystem(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWorkload(qs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.CacheHits
	}
	small := hitsAt(4 << 10)
	large := hitsAt(4 << 30)
	if large < small {
		t.Fatalf("hits decreased with capacity: %d -> %d", small, large)
	}
	if large == 0 {
		t.Fatal("no hits with unbounded cache")
	}
}

func TestEvictionUnderTinyCache(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	cfg := testConfig(PolicyHash)
	cfg.CacheBytes = 2 << 10
	sys, err := NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWorkload(qs)
	if err != nil {
		t.Fatal(err)
	}
	var evictions int64
	for _, pr := range rep.PerProc {
		evictions += pr.Cache.Evictions
	}
	if evictions == 0 {
		t.Fatal("tiny cache recorded no evictions")
	}
	// Correctness unaffected by churn.
	for _, q := range qs {
		if rep.Results[q.ID] != query.Answer(g, q) {
			t.Fatalf("query %d wrong under eviction pressure", q.ID)
		}
	}
}

func TestEthernetVsInfinibandResponses(t *testing.T) {
	// gRouting-E (Figure 7): identical answers, higher latency on Ethernet.
	g := gen.LocalWeb(1000, 8, 60, 0.01, 3)
	qs := testWorkload(g)
	run := func(eth bool) *Report {
		cfg := testConfig(PolicyHash)
		if eth {
			cfg.Network = ethernetProfile()
		}
		sys, err := NewSystem(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWorkload(qs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ib, eth := run(false), run(true)
	if eth.MeanResponse <= ib.MeanResponse {
		t.Fatalf("ethernet response %v <= infiniband %v", eth.MeanResponse, ib.MeanResponse)
	}
	for i := range qs {
		if ib.Results[i] != eth.Results[i] {
			t.Fatalf("query %d differs across networks", i)
		}
	}
}

func ethernetProfile() simnet.Profile { return simnet.Ethernet() }
