package rpc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// TestClusterMultiAnchorMatchesOracle runs the full mixed workload —
// including PatternMatch and BoundedReach — through a real localhost
// deployment, one query at a time and then as a single batch, and checks
// every result against the in-memory oracle.
func TestClusterMultiAnchorMatchesOracle(t *testing.T) {
	g := gen.LocalWeb(1200, 8, 60, 0.01, 6)
	_, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 3, Policy: core.PolicyHash})
	qs := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots: 8, QueriesPerHotspot: 5, R: 2, H: 2,
		Types: query.MixedTypes, VisitBudget: 8, Seed: 13,
	})
	var patterns, reaches int
	for _, q := range qs {
		switch q.Type {
		case query.PatternMatch:
			patterns++
		case query.BoundedReach:
			reaches++
		}
	}
	if patterns == 0 || reaches == 0 {
		t.Fatalf("workload has %d patterns, %d bounded reaches; want both > 0", patterns, reaches)
	}

	ctx := context.Background()
	for _, q := range qs {
		got, err := cl.Execute(ctx, q)
		if err != nil {
			t.Fatalf("query %d (%v): %v", q.ID, q.Type, err)
		}
		if want := query.Answer(g, q); got != want {
			t.Fatalf("query %d (%v): got %+v, want %+v", q.ID, q.Type, got, want)
		}
	}

	// The same workload as one batch: executeMixed must reassemble classic
	// and multi-anchor results positionally.
	results, err := cl.ExecuteBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(results), len(qs))
	}
	for i, q := range qs {
		if want := query.Answer(g, q); results[i] != want {
			t.Fatalf("batch query %d (%v): got %+v, want %+v", q.ID, q.Type, results[i], want)
		}
	}
}

// labelledPattern is a pattern from g's second node to any neighbour
// labelled "type1".
func labelledPattern(g *graph.Graph) query.Query {
	anchor := g.Nodes()[1]
	return query.Query{
		Type: query.PatternMatch,
		Node: anchor,
		Pattern: &query.Pattern{
			Nodes: []query.PatternNode{{Anchor: anchor}, {Label: "type1"}},
			Edges: []query.PatternEdge{{From: 0, To: 1}},
		},
		Dir: graph.Out,
	}
}

// TestClusterLabelledPattern checks label resolution over the wire: a
// router started with the dataset resolves template label strings; one
// started without it rejects labelled templates with the typed error
// rather than silently matching nothing.
func TestClusterLabelledPattern(t *testing.T) {
	g := gen.KnowledgeGraph(600, 2400, 4, 3, 9)
	q := labelledPattern(g)
	anchor := q.Node

	ctx := context.Background()
	d, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 3, Policy: core.PolicyHash})
	got, err := cl.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.Answer(g, q); got != want {
		t.Fatalf("labelled pattern: got %+v, want %+v", got, want)
	}

	// A template naming a label absent from the dataset matches nothing.
	q2 := q
	q2.Pattern = &query.Pattern{
		Nodes: []query.PatternNode{{Anchor: anchor}, {Label: "no-such-type"}},
		Edges: []query.PatternEdge{{From: 0, To: 1}},
	}
	if got, err := cl.Execute(ctx, q2); err != nil || got.Matches != 0 {
		t.Fatalf("unknown label: got %+v, %v; want 0 matches", got, err)
	}

	// Without the graph the router has no label table: typed rejection, from
	// a router started over the same processors and shards without it.
	var procs []string
	for _, ps := range d.procs {
		procs = append(procs, ps.Addr())
	}
	rs, err := NewRouterServer("127.0.0.1:0", RouterConfig{Processors: procs, Policy: core.PolicyHash, Storage: d.storageAddrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	bare, err := DialRouter(ctx, rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bare.Close() })
	if _, err := bare.Execute(ctx, q); !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("labelled pattern on graph-less router: err = %v, want ErrBadQuery", err)
	}
}

// TestRouterServerKeepsOnlyTheLabelTable: RouterConfig.Graph is read during
// construction and not retained — the graph is collectable as soon as the
// caller lets go, here once Loopback returns — yet labelled patterns and
// labelled mutations resolve.
func TestRouterServerKeepsOnlyTheLabelTable(t *testing.T) {
	g := gen.KnowledgeGraph(600, 2400, 4, 3, 9)
	q := labelledPattern(g)
	want, wp := query.Answer(g, q), weak.Make(g)
	_, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 3, Policy: core.PolicyHash})
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("the graph handed to NewRouterServer is still reachable after construction")
	}
	ctx := context.Background()
	if got, err := cl.Execute(ctx, q); err != nil || got != want {
		t.Fatalf("labelled pattern: got %+v, %v; want %+v", got, err, want)
	}
	if _, err := cl.Mutate(ctx, []query.Mutation{{Op: query.MutUpsertNode, Node: 5000, Label: "never-seen"}}); err != nil {
		t.Fatalf("labelled mutation: %v", err)
	}
}

// TestLabelledPatternRacesLabelledMutate: planning a labelled pattern reads
// the router's label table on the request's own goroutine while a labelled
// mutation interns into it under mutMu, which queries never take. Before the
// table carried its own lock that was a concurrent map read and map write —
// a report under -race, a fatal error without it.
func TestLabelledPatternRacesLabelledMutate(t *testing.T) {
	g := gen.KnowledgeGraph(600, 2400, 4, 3, 9)
	_, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 3, Policy: core.PolicyHash})
	ctx := context.Background()

	anchors := g.Nodes()[1:9]
	qs := make([]query.Query, len(anchors))
	want := make([]query.Result, len(anchors))
	for i, a := range anchors {
		qs[i] = query.Query{
			Type: query.PatternMatch,
			Node: a,
			Pattern: &query.Pattern{
				Nodes: []query.PatternNode{{Anchor: a}, {Label: fmt.Sprintf("type%d", i%4)}},
				Edges: []query.PatternEdge{{From: 0, To: 1}},
			},
			Dir: graph.Out,
		}
		want[i] = query.Answer(g, qs[i])
	}

	const rounds = 300
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			got, err := cl.Execute(ctx, qs[i%len(qs)])
			if err != nil || got != want[i%len(qs)] {
				t.Errorf("pattern %d: got %+v, %v; want %+v", i, got, err, want[i%len(qs)])
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		// Fresh ids past the graph, each under a label nobody has seen: every
		// one interns, none changes a pattern's answer.
		first := g.MaxNodeID()
		for i := 0; i < rounds; i++ {
			m := query.Mutation{Op: query.MutUpsertNode, Node: first + graph.NodeID(i), Label: fmt.Sprintf("fresh-%d", i)}
			if _, err := cl.Mutate(ctx, []query.Mutation{m}); err != nil {
				t.Errorf("mutation %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestMultiAnchorCancellation cancels multi-anchor executions mid-stream
// and checks the typed classification plus that the client stays usable
// (the pool discards connections poisoned by cancellation).
func TestMultiAnchorCancellation(t *testing.T) {
	g := gen.LocalWeb(1500, 8, 60, 0.01, 7)
	_, cl := startLoopback(t, g, core.Config{StorageServers: 2, Processors: 3, Policy: core.PolicyHash})
	q := query.Query{
		Type:        query.BoundedReach,
		Node:        5,
		Anchors:     []graph.NodeID{5, 9, 12},
		Target:      1400,
		Hops:        6,
		VisitBudget: 2, // tiny budget forces many relaunch waves
		Dir:         graph.Out,
	}

	// Already-cancelled context: deterministic mid-pipeline abort.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Execute(cancelled, q); err == nil {
		t.Fatal("cancelled multi-anchor execute succeeded")
	} else if !errors.Is(err, context.Canceled) && !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("cancelled execute error = %v, want context.Canceled or ErrUnavailable", err)
	}

	// Cancel racing the wave loop: either the query finished first or it
	// was cut off with a typed error — never a hang or a wrong answer.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(time.Duration(i) * 200 * time.Microsecond)
			cancel()
		}()
		got, err := cl.Execute(ctx, q)
		<-done
		if err == nil {
			if want := query.Answer(g, q); got != want {
				t.Fatalf("raced execute: got %+v, want %+v", got, want)
			}
		} else if !errors.Is(err, context.Canceled) && !errors.Is(err, query.ErrUnavailable) {
			t.Fatalf("raced execute error = %v", err)
		}
	}

	// The client remains usable afterwards.
	got, err := cl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.Answer(g, q); got != want {
		t.Fatalf("post-cancel result %+v, want %+v", got, want)
	}
}
