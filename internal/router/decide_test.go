package router

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// TestDecideHonoursSuppliedLoads: Decide and DecideAnchors decide under the
// loads they are handed — the networked router's in-flight counts — not
// under the queues, and leave the queues alone.
func TestDecideHonoursSuppliedLoads(t *testing.T) {
	r, _ := New(NewNextReady(), 3, true)
	for i := 0; i < 6; i++ {
		r.Route(q(i, graph.NodeID(i))) // two queued everywhere
	}
	// Next-ready takes the argmin of what it is given, whatever is queued.
	if p := r.Decide(q(6, 0), []int{9, 7, 2}); p != 2 {
		t.Fatalf("Decide picked %d, want the least loaded slot 2", p)
	}
	if picks := r.DecideAnchors(mq(1, 2), []graph.NodeID{1, 2}, []int{4, 0, 4}); picks[0] != 1 || picks[1] != 1 {
		t.Fatalf("DecideAnchors picked %v, want both on slot 1 (loads 0 then 1)", picks)
	}
	if r.Pending() != 6 {
		t.Fatalf("Decide touched the queues: %d pending, want 6", r.Pending())
	}
	// Decisions count as assigned; only dispatch (Next, RouteAnchors) counts
	// as executed.
	if a := r.Assigned(); a[0] != 2 || a[1] != 4 || a[2] != 3 {
		t.Fatalf("Assigned = %v", a)
	}
	if e := r.Executed(); e[0]+e[1]+e[2] != 0 {
		t.Fatalf("Executed = %v", e)
	}
}

// TestDecideMembership: a departed slot is never picked, however idle its
// supplied load looks, and costs no diversion; a Down or Draining pick is
// diverted to a live slot and counted against the slot that lost it.
func TestDecideMembership(t *testing.T) {
	tr := topology.NewTracker(4, nil)
	r, _ := NewFromView(NewNextReady(), tr.View(), true)
	v, err := tr.Leave(1)
	if err != nil {
		t.Fatal(err)
	}
	r.ApplyView(v)
	for i := 0; i < 8; i++ {
		if p := r.Decide(q(i, graph.NodeID(i)), []int{5, 0, 6, 7}); p != 0 {
			t.Fatalf("with slot 1 departed Decide picked %d, want 0", p)
		}
	}
	if r.Diverted() != 0 {
		t.Fatalf("steering clear of a departed slot counted %d diversions", r.Diverted())
	}

	setAlive(t, r, tr, 0, false)
	if v, err = tr.Drain(2); err != nil {
		t.Fatal(err)
	}
	r.ApplyView(v)
	// Slot 0 is Down, 2 Draining, 1 Left: only 3 serves, whatever its load.
	if p := r.Decide(q(8, 0), []int{0, 0, 1, 50}); p != 3 {
		t.Fatalf("Down pick diverted to %d, want 3", p)
	}
	if picks := r.DecideAnchors(mq(1, 2), []graph.NodeID{1, 2}, []int{9, 0, 1, 50}); picks[0] != 3 || picks[1] != 3 {
		t.Fatalf("Draining picks diverted to %v, want slot 3", picks)
	}
	if rows := r.Snapshot("", Coords{}).PerProc; rows[0].Diverted != 1 || rows[1].Diverted != 0 || rows[2].Diverted != 2 || r.Diverted() != 3 {
		t.Fatalf("per-slot diverted %+v, total %d", rows, r.Diverted())
	}
}

// TestDecideAllocatesNothing: the decision sits on the networked router's
// per-query path under its lock.
func TestDecideAllocatesNothing(t *testing.T) {
	emb, _ := buildEmbedStrategy(t, 2, 0.5, 20)
	for _, s := range []Strategy{NewHash(), emb} {
		r, _ := New(s, 2, true)
		loads := []int{0, 0}
		n := 0
		if allocs := testing.AllocsPerRun(200, func() {
			loads[0], loads[1] = n&1, 1
			r.Decide(q(n, graph.NodeID(n%12)), loads)
			n++
		}); allocs != 0 {
			t.Errorf("%s: Decide allocates %v times per call", s.Name(), allocs)
		}
	}
}
