package core

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// multiWorkload is a pinned mixed workload heavy in multi-anchor queries,
// with a budget small enough to force relaunch waves.
func multiWorkload(g *graph.Graph) []query.Query {
	return query.Hotspot(g, query.WorkloadSpec{
		NumHotspots:       15,
		QueriesPerHotspot: 5,
		R:                 2,
		H:                 2,
		Types:             query.MixedTypes,
		VisitBudget:       8,
		Seed:              21,
	})
}

// TestMultiAnchorMatchesOracle runs the full mixed workload — single-seed
// and multi-anchor kinds interleaved — through a session under every
// routing policy and compares each answer with the in-memory oracle.
func TestMultiAnchorMatchesOracle(t *testing.T) {
	g := testGraph()
	qs := multiWorkload(g)
	for _, pol := range Policies {
		sys, err := NewSystem(g, testConfig(pol))
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		ses, err := sys.NewSession()
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for _, q := range qs {
			got, _, err := ses.Execute(q)
			if err != nil {
				t.Fatalf("%v query %d (%v): %v", pol, q.ID, q.Type, err)
			}
			if want := query.Answer(g, q); got != want {
				t.Fatalf("%v query %d (%v): session %+v, oracle %+v", pol, q.ID, q.Type, got, want)
			}
		}
		subtasks, waves, maxV := ses.MultiStats()
		if subtasks == 0 || waves == 0 {
			t.Fatalf("%v: no multi-anchor work recorded (%d subtasks, %d waves)", pol, subtasks, waves)
		}
		if maxV > 8 {
			t.Fatalf("%v: a subtask visited %d nodes, budget 8", pol, maxV)
		}
		if waves <= subtasksPerWaveFloor(qs) {
			t.Fatalf("%v: %d waves for %d multi-anchor queries — budget 8 never forced relaunch", pol, waves, subtasksPerWaveFloor(qs))
		}
	}
}

// subtasksPerWaveFloor counts the multi-anchor queries: each needs at
// least one wave, so strictly more waves proves partial evaluation
// relaunched truncated frontiers.
func subtasksPerWaveFloor(qs []query.Query) int64 {
	n := int64(0)
	for _, q := range qs {
		if q.Type.MultiAnchor() {
			n++
		}
	}
	return n
}

// TestMultiAnchorVirtualTimeAdvances checks the fan-out is billed: a
// multi-anchor query must consume virtual time (routing decisions per
// subtask + storage movement + compute).
func TestMultiAnchorVirtualTimeAdvances(t *testing.T) {
	g := testGraph()
	sys, err := NewSystem(g, testConfig(PolicyHash))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	var q query.Query
	for _, cand := range multiWorkload(g) {
		if cand.Type == query.BoundedReach {
			q = cand
			break
		}
	}
	if q.Type != query.BoundedReach {
		t.Fatal("workload produced no BoundedReach query")
	}
	before := ses.Now()
	_, service, err := ses.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if service <= 0 {
		t.Fatal("multi-anchor query billed zero virtual time")
	}
	if ses.Now() != before+service {
		t.Fatalf("session clock advanced %v, service says %v", ses.Now()-before, service)
	}
}

// TestMultiAnchorLabelledPattern exercises the plan-time label resolution
// against the system's graph: an interned label joins correctly, an
// unknown one answers zero like the oracle.
func TestMultiAnchorLabelledPattern(t *testing.T) {
	g := gen.KnowledgeGraph(800, 3200, 4, 3, 5)
	sys, err := NewSystem(g, testConfig(PolicyLandmark))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	var anchor graph.NodeID
	for _, u := range g.Nodes() {
		if u != 0 && len(g.OutEdges(u)) > 0 {
			anchor = u
			break
		}
	}
	for _, label := range []string{"type1", "no-such-type"} {
		q := query.Query{
			Type: query.PatternMatch,
			Node: anchor,
			Dir:  graph.Out,
			Pattern: &query.Pattern{
				Nodes: []query.PatternNode{{Anchor: anchor}, {Label: label}},
				Edges: []query.PatternEdge{{From: 0, To: 1}},
			},
		}
		got, _, err := ses.Execute(q)
		if err != nil {
			t.Fatalf("label %q: %v", label, err)
		}
		if want := query.Answer(g, q); got != want {
			t.Fatalf("label %q: session %+v, oracle %+v", label, got, want)
		}
	}
}

// TestRunWorkloadRejectsMultiAnchor pins the closed-loop driver's contract:
// it admits single-destination queries, and multi-anchor kinds execute
// through Session.Execute.
func TestRunWorkloadRejectsMultiAnchor(t *testing.T) {
	g := testGraph()
	sys, err := NewSystem(g, testConfig(PolicyHash))
	if err != nil {
		t.Fatal(err)
	}
	qs := []query.Query{{
		ID: 0, Type: query.BoundedReach, Node: 1, Anchors: []graph.NodeID{1},
		Target: 2, Hops: 2, VisitBudget: 4, Dir: graph.Out,
	}}
	if _, err := sys.RunWorkload(qs); !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("RunWorkload accepted a multi-anchor query: %v", err)
	}
}
