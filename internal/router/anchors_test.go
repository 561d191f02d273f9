package router

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/topology"
)

// recordingAnchors is a strategy with its own multi-anchor hook, to prove
// the hook takes precedence over per-anchor adaptation.
type recordingAnchors struct {
	Hash
	calls int
}

func (s *recordingAnchors) PickAnchors(q query.Query, anchors []graph.NodeID, loads []int) []int {
	s.calls++
	picks := make([]int, len(anchors))
	for i := range picks {
		picks[i] = 1 // pack everything on processor 1
	}
	return picks
}

func mq(anchors ...graph.NodeID) query.Query {
	return query.Query{
		Type:        query.BoundedReach,
		Node:        anchors[0],
		Anchors:     anchors,
		Target:      99,
		Hops:        2,
		VisitBudget: 4,
		Dir:         graph.Out,
	}
}

func TestPickAnchorsDefaultsToPerAnchor(t *testing.T) {
	// Hash has no hook: each anchor routes as a single-seed query on that
	// node (anchor mod procs).
	loads := []int{0, 0, 0}
	picks := PickAnchors(NewHash(), mq(3, 4, 6), []graph.NodeID{3, 4, 6}, loads)
	want := []int{0, 1, 0}
	for i := range want {
		if picks[i] != want[i] {
			t.Fatalf("picks = %v, want %v", picks, want)
		}
	}
	// The fan-out feeds back into loads as it commits.
	if loads[0] != 2 || loads[1] != 1 || loads[2] != 0 {
		t.Fatalf("loads after fan-out = %v", loads)
	}
}

func TestPickAnchorsUsesHook(t *testing.T) {
	s := &recordingAnchors{}
	picks := PickAnchors(s, mq(3, 4), []graph.NodeID{3, 4}, []int{0, 0, 0})
	if s.calls != 1 {
		t.Fatalf("hook called %d times", s.calls)
	}
	if picks[0] != 1 || picks[1] != 1 {
		t.Fatalf("hook picks ignored: %v", picks)
	}
}

func TestRouteAnchorsAccounting(t *testing.T) {
	r, _ := New(NewHash(), 3, true)
	picks := r.RouteAnchors(mq(3, 4, 6), []graph.NodeID{3, 4, 6})
	if picks[0] != 0 || picks[1] != 1 || picks[2] != 0 {
		t.Fatalf("picks = %v", picks)
	}
	// Subtasks are assigned and executed, never enqueued.
	if got := r.assigned; got[0] != 2 || got[1] != 1 {
		t.Fatalf("assigned = %v", got)
	}
	if got := r.Executed(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("executed = %v", got)
	}
	if pending(r) != 0 {
		t.Fatalf("subtasks left %d queries pending", pending(r))
	}
}

func TestRouteAnchorsDivertsFromDead(t *testing.T) {
	tr := topology.NewTracker(3, nil)
	r, _ := NewFromView(NewHash(), tr.View(), true)
	setAlive(t, r, tr, 0, false)
	picks := r.RouteAnchors(mq(3, 6), []graph.NodeID{3, 6}) // both hash to 0
	for i, p := range picks {
		if p == 0 {
			t.Fatalf("subtask %d routed to the dead processor", i)
		}
	}
	if r.Diverted() != 2 {
		t.Fatalf("Diverted = %d, want 2", r.Diverted())
	}
}
