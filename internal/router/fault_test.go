package router

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// setAlive fails or revives slot through the tracker and moves the router
// to the resulting view — how every member transition reaches a router.
func setAlive(t *testing.T, r *Router, tr *topology.Tracker, slot int, alive bool) {
	t.Helper()
	v, err := tr.Fail(slot)
	if alive {
		v, err = tr.Revive(slot)
	}
	if err != nil {
		t.Fatal(err)
	}
	r.ApplyView(v)
}

// TestDeadProcessorGetsNoWork: a dead processor must not pop its own queue
// nor steal — Next always reports no work for it until it is revived.
func TestDeadProcessorGetsNoWork(t *testing.T) {
	tr := topology.NewTracker(3, nil)
	r, _ := NewFromView(NewHash(), tr.View(), true)
	// Queue work everywhere (nodes 0..8 spread over the 3 queues).
	for i := 0; i < 9; i++ {
		r.Route(q(i, graph.NodeID(i)))
	}
	setAlive(t, r, tr, 1, false)
	if _, ok := r.Next(1); ok {
		t.Fatal("dead processor was handed work")
	}
	if got := r.Executed()[1]; got != 0 {
		t.Fatalf("dead processor executed %d", got)
	}
	// Its backlog is intact for the live processors to recover.
	if r.QueueLen(1) != 3 {
		t.Fatalf("dead queue drained to %d", r.QueueLen(1))
	}
	// Revival restores normal dispatch.
	setAlive(t, r, tr, 1, true)
	if qq, ok := r.Next(1); !ok || int(qq.Node)%3 != 1 {
		t.Fatalf("revived processor Next = %v/%v", qq, ok)
	}
	// Out-of-range indices are never alive.
	if _, ok := r.Next(-1); ok {
		t.Fatal("negative index got work")
	}
	if _, ok := r.Next(99); ok {
		t.Fatal("out-of-range index got work")
	}
}

// TestDeadQueueRecoveredByStealing: queries already queued for a processor
// when it dies are recovered by the live processors through stealing (the
// fault-tolerance property of Section 1), with per-processor steal
// accounting.
func TestDeadQueueRecoveredByStealing(t *testing.T) {
	tr := topology.NewTracker(3, nil)
	r, _ := NewFromView(NewHash(), tr.View(), true)
	// All six queries hash to processor 0.
	for i := 0; i < 6; i++ {
		r.Route(q(i, graph.NodeID(i*3)))
	}
	setAlive(t, r, tr, 0, false)
	seen := map[int]bool{}
	for {
		q1, ok1 := r.Next(1)
		if ok1 {
			seen[q1.ID] = true
		}
		q2, ok2 := r.Next(2)
		if ok2 {
			seen[q2.ID] = true
		}
		if !ok1 && !ok2 {
			break
		}
	}
	if len(seen) != 6 {
		t.Fatalf("recovered %d of 6 queries from the dead queue", len(seen))
	}
	if r.Stolen() != 6 {
		t.Fatalf("Stolen = %d, want 6", r.Stolen())
	}
	if rows := r.Snapshot("", Coords{}).PerProc; rows[0].Stolen != 0 || rows[1].Stolen+rows[2].Stolen != 6 {
		t.Fatalf("per-slot stolen: %+v", rows)
	}
	exec := r.Executed()
	if exec[0] != 0 || exec[1]+exec[2] != 6 {
		t.Fatalf("Executed = %v", exec)
	}
}

// TestDivertedAccountingAcrossKillRevive: new queries picked for a dead
// processor divert (counted globally and per-processor); after revival the
// strategy's choice is honoured again with no further diversions.
func TestDivertedAccountingAcrossKillRevive(t *testing.T) {
	tr := topology.NewTracker(2, nil)
	r, _ := NewFromView(NewHash(), tr.View(), true)
	setAlive(t, r, tr, 0, false)
	// Even nodes hash to processor 0, which is down.
	for i := 0; i < 4; i++ {
		if p := r.Route(q(i, graph.NodeID(i*2))); p != 1 {
			t.Fatalf("query %d routed to %d, want live 1", i, p)
		}
	}
	if r.Diverted() != 4 {
		t.Fatalf("Diverted = %d, want 4", r.Diverted())
	}
	if rows := r.Snapshot("", Coords{}).PerProc; rows[0].Diverted != 4 || rows[1].Diverted != 0 {
		t.Fatalf("per-slot diverted: %+v", rows)
	}
	// Assignment lands on the processor that actually received the query.
	if a := r.assigned; a[0] != 0 || a[1] != 4 {
		t.Fatalf("Assigned = %v", a)
	}

	setAlive(t, r, tr, 0, true)
	if p := r.Route(q(4, 8)); p != 0 {
		t.Fatalf("revived processor not used: routed to %d", p)
	}
	if r.Diverted() != 4 {
		t.Fatalf("revival produced spurious diversions: %d", r.Diverted())
	}
	if rows := r.Snapshot("", Coords{}).PerProc; rows[0].Diverted != 4 {
		t.Fatalf("per-slot diverted after revive: %+v", rows)
	}
}
