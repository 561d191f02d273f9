package router

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// wantLoads fails the test unless every slot's Load, and the snapshot row
// that reports it, reads want.
func wantLoads(t *testing.T, r *Router, want ...int) {
	t.Helper()
	rows := r.Snapshot("", Coords{}).PerProc
	for p, w := range want {
		if r.Load(p) != w || rows[p].QueueDepth != int64(w) {
			t.Fatalf("slot %d: Load %d, snapshot row %d; want %d (all loads want %v)", p, r.Load(p), rows[p].QueueDepth, w, want)
		}
	}
}

// TestLoadIsQueuedPlusOutstanding: a slot's load is its queued queries plus
// the work Next and RouteAnchors handed it that is not yet acked, every
// decision reads it, and a steal moves it to the thief.
func TestLoadIsQueuedPlusOutstanding(t *testing.T) {
	r, _ := New(NewNextReady(), 3, true)
	for i := 0; i < 6; i++ {
		r.Route(q(i, graph.NodeID(i)))
	}
	wantLoads(t, r, 2, 2, 2)

	// Next moves a query from queued to outstanding, where it stays until
	// Done acks it.
	r.Next(1)
	r.Next(1)
	if r.QueueLen(1) != 0 {
		t.Fatalf("slot 1 still queues %d", r.QueueLen(1))
	}
	wantLoads(t, r, 2, 2, 2)
	r.Next(0)
	r.Done(0, 1)
	wantLoads(t, r, 1, 2, 2)
	// Slot 1 queues nothing, but its outstanding work weighs like queued work.
	if p := r.Route(q(6, 0)); p != 0 {
		t.Fatalf("Route picked %d, want slot 0, the least loaded", p)
	}
	wantLoads(t, r, 2, 2, 2)

	// Slot 1 is acked and, its queue empty, steals: the load moves to it.
	r.Done(1, 2)
	if _, ok := r.Next(1); !ok || r.Stolen() != 1 {
		t.Fatalf("Next(1) on an empty queue: ok %v, %d stolen; want a steal", ok, r.Stolen())
	}
	wantLoads(t, r, 1, 1, 2)

	// RouteAnchors counts every pick as outstanding, and the fan-out feeds
	// its own decisions: two anchors land on the two least loaded slots.
	picks := r.RouteAnchors(mq(1, 2), []graph.NodeID{1, 2})
	if got := slices.Sorted(slices.Values(picks)); got[0] != 0 || got[1] != 1 {
		t.Fatalf("RouteAnchors picked %v, want slots 0 and 1", picks)
	}
	wantLoads(t, r, 2, 2, 2)
	for _, p := range picks {
		r.Done(p, 1)
	}
	wantLoads(t, r, 1, 1, 2)
	// The digest holds the destination's load at each decision, before the
	// query joins it: never above 1 here.
	if snap := r.Snapshot("", Coords{}); snap.QueueDepth.Count != 9 || snap.QueueDepth.Max != 1 {
		t.Fatalf("load digest %+v, want 9 decisions, none above 1", snap.QueueDepth)
	}
}

// TestDecideMembership: a departed slot is never picked, however idle its
// load, and costs no diversion; a Down or Draining pick is diverted to a
// live slot and counted against the slot that lost it.
func TestDecideMembership(t *testing.T) {
	tr := topology.NewTracker(4, nil)
	r, _ := NewFromView(NewNextReady(), tr.View(), false)
	v, err := tr.Leave(1)
	if err != nil {
		t.Fatal(err)
	}
	r.ApplyView(v)
	for i := 0; i < 9; i++ {
		p := r.Route(q(i, graph.NodeID(i)))
		if p == 1 {
			t.Fatalf("with slot 1 departed Route picked it")
		}
		r.Next(p) // never acked: the live slots grow busy, slot 1 stays idle
	}
	for _, p := range r.RouteAnchors(mq(1, 2), []graph.NodeID{1, 2}) {
		if p == 1 {
			t.Fatalf("with slot 1 departed RouteAnchors picked it")
		}
	}
	wantLoads(t, r, 4, 0, 4, 3)
	if r.Diverted() != 0 {
		t.Fatalf("steering clear of a departed slot counted %d diversions", r.Diverted())
	}

	// Slot 0 goes Down idle, 2 Draining nearly idle, 3 stays the busiest:
	// only 3 serves, whatever the loads say.
	r.Done(0, 4)
	r.Done(2, 3)
	setAlive(t, r, tr, 0, false)
	if v, err = tr.Drain(2); err != nil {
		t.Fatal(err)
	}
	r.ApplyView(v)
	if p := r.Route(q(9, 0)); p != 3 {
		t.Fatalf("Down pick diverted to %d, want 3", p)
	}
	if picks := r.RouteAnchors(mq(1, 2), []graph.NodeID{1, 2}); picks[0] != 3 || picks[1] != 3 {
		t.Fatalf("picks diverted to %v, want slot 3", picks)
	}
	rows := r.Snapshot("", Coords{}).PerProc
	if rows[1].Diverted != 0 || rows[3].Diverted != 0 || rows[0].Diverted+rows[2].Diverted != 3 || r.Diverted() != 3 {
		t.Fatalf("per-slot diverted %+v, total %d", rows, r.Diverted())
	}
	wantLoads(t, r, 0, 0, 1, 6)
}

// TestDecideAllocatesNothing: Route, Next and Done sit on the networked
// router's per-query path under its lock.
func TestDecideAllocatesNothing(t *testing.T) {
	emb, _ := buildEmbedStrategy(t, 2, 0.5, 20)
	for _, s := range []Strategy{NewHash(), emb} {
		r, _ := New(s, 2, false)
		r.Next(r.Route(q(0, 0))) // one query held outstanding: the loads differ
		n := 1
		if allocs := testing.AllocsPerRun(200, func() {
			p := r.Route(q(n, graph.NodeID(n%12)))
			r.Next(p)
			r.Done(p, 1)
			n++
		}); allocs != 0 {
			t.Errorf("%s: Route, Next and Done allocate %v times per query", s.Name(), allocs)
		}
		if got := []int{r.Load(0), r.Load(1)}; slices.Max(got) != 1 || slices.Min(got) != 0 {
			t.Errorf("%s: loads %v after the loop, want the held query alone", s.Name(), got)
		}
	}
}
