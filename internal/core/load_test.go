package core

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
)

// wantIdle fails the test unless every slot's load, and the snapshot row
// that reports it, reads 0.
func wantIdle(t *testing.T, ses *Session, after string) {
	t.Helper()
	for p, row := range ses.Snapshot().PerProc {
		if ses.rt.Load(p) != 0 || row.QueueDepth != 0 {
			t.Fatalf("after %s: slot %d has load %d, snapshot row %d; want 0", after, p, ses.rt.Load(p), row.QueueDepth)
		}
	}
}

// reachQueries returns two bounded reaches from an anchor a: found's first
// subtask finds its target one hop out of a, so the wave ends before its
// second subtask is issued; failing's second anchor has no record, so its
// wave fails at the second of three subtasks.
func reachQueries(g *graph.Graph) (found, failing query.Query) {
	nodes := g.Nodes() // ascending: nodes[1] is not the zero id
	missing := g.MaxNodeID() + 5
	for _, a := range nodes[2:] {
		for _, e := range g.OutEdges(a) {
			if e.To != a && e.To != 0 {
				found = query.Query{
					Type: query.BoundedReach, Node: a, Anchors: []graph.NodeID{a, nodes[1]},
					Target: e.To, Hops: 2, VisitBudget: 8, Dir: graph.Out,
				}
				failing = found
				failing.Anchors, failing.Target = []graph.NodeID{a, missing, nodes[1]}, missing+1
				return found, failing
			}
		}
	}
	panic("graph has no edge")
}

// TestNoLoadLeaks: a session acks every query and subtask it dispatched on
// every exit path — a query that fails, a wave a found target ends early, a
// wave a failed subtask ends — so every slot's load reads 0 after each, and
// no later decision sees a phantom load.
func TestNoLoadLeaks(t *testing.T) {
	sys, qs := storageTestSystem(t, 1)
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	found, failing := reachQueries(sys.Graph())
	before, _, _ := ses.MultiStats()
	if res, _, err := ses.Execute(found); err != nil || !res.Reachable {
		t.Fatalf("reach: %+v, %v; want reachable", res, err)
	}
	after, _, _ := ses.MultiStats()
	if after-before != 1 {
		t.Fatalf("reach ran %d subtasks, want 1 of 2: the early exit is not exercised", after-before)
	}
	wantIdle(t, ses, "a reach found in its first subtask")
	if _, _, err := ses.Execute(failing); !errors.Is(err, query.ErrUnknownNode) {
		t.Fatalf("reach from a missing anchor: %v, want unknown node", err)
	}
	if now, _, _ := ses.MultiStats(); now-after != 2 {
		t.Fatalf("failing reach ran %d subtasks, want 2 of 3: the mid-wave failure is not exercised", now-after)
	}
	wantIdle(t, ses, "a reach that failed mid-wave")

	// The only storage server of a third of the records fails.
	if err := sys.FailStorage(0); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, q := range qs {
		if _, _, err := ses.Execute(q); err != nil {
			if !errors.Is(err, query.ErrUnavailable) {
				t.Fatalf("query %d: %v, want unavailable", q.ID, err)
			}
			failed++
		}
		wantIdle(t, ses, "a point query")
	}
	if failed == 0 {
		t.Fatal("no query touched the failed server: the failing path is not exercised")
	}
}
