package router

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/query"
	"repro/internal/topology"
)

func buildTestEmbedding(t *testing.T, g *graph.Graph, idx *landmark.Index) *embed.Embedding {
	t.Helper()
	emb, err := embed.Build(g, idx, embed.Options{Dimensions: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return emb
}

func routeN(r *Router, n int) {
	for i := 0; i < n; i++ {
		r.Route(query.Query{ID: i, Node: graph.NodeID(i * 37)})
	}
}

func TestApplyViewGrowsSlots(t *testing.T) {
	tr := topology.NewTracker(2, nil)
	r, err := NewFromView(NewStableHash(2), tr.View(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.queues) != 2 || r.Epoch() != 1 {
		t.Fatalf("initial procs/epoch = %d/%d", len(r.queues), r.Epoch())
	}
	slot, v := tr.Join("")
	if moved := r.ApplyView(v); moved != 0 {
		t.Fatalf("join reassigned %d queries", moved)
	}
	if len(r.queues) != 3 || r.Epoch() != 2 || r.Status(slot) != topology.Active {
		t.Fatalf("after join: procs=%d epoch=%d status=%v", len(r.queues), r.Epoch(), r.Status(slot))
	}
	// New member receives work.
	routeN(r, 300)
	if r.assigned[slot] == 0 {
		t.Fatal("joined member assigned no work")
	}
	// Stale views are ignored.
	if r.ApplyView(topology.Static(1)) != 0 || len(r.queues) != 3 {
		t.Fatal("stale view applied")
	}
}

func TestApplyViewReassignsDepartedBacklog(t *testing.T) {
	tr := topology.NewTracker(3, nil)
	r, err := NewFromView(NewStableHash(3), tr.View(), true)
	if err != nil {
		t.Fatal(err)
	}
	routeN(r, 90)
	leaving := 1
	backlog := r.QueueLen(leaving)
	if backlog == 0 {
		t.Fatal("test needs a backlog on the leaving member")
	}
	pendingBefore := pending(r)
	v, err := tr.Leave(leaving)
	if err != nil {
		t.Fatal(err)
	}
	moved := r.ApplyView(v)
	if moved != backlog {
		t.Fatalf("reassigned %d, want the whole %d-query backlog", moved, backlog)
	}
	if r.QueueLen(leaving) != 0 {
		t.Fatal("departed member still has queued work")
	}
	if pending(r) != pendingBefore {
		t.Fatalf("pending %d != %d: queries lost in transition", pending(r), pendingBefore)
	}
	if r.reassigned != int64(backlog) {
		t.Fatalf("Reassigned() = %d, want %d", r.reassigned, backlog)
	}
	if _, ok := r.Next(leaving); ok {
		t.Fatal("departed member handed work")
	}
	// The transition shows up in the event log.
	evs := r.Events()
	if len(evs) != 1 || evs[0].Left != 1 || evs[0].Reassigned != int64(backlog) || evs[0].Epoch != v.Epoch {
		t.Fatalf("events = %+v", evs)
	}
	// Every query still drains through the live members.
	drained := 0
	for p := 0; p < len(r.queues); p++ {
		for {
			if _, ok := r.Next(p); !ok {
				break
			}
			drained++
		}
	}
	if drained != 90 {
		t.Fatalf("drained %d of 90 queries", drained)
	}
}

// TestStableHashRemapBound pins the acceptance criterion at strategy level:
// growing 4→6 moves at most ~1/3 of a sampled key set, while naive modulo
// hashing reshuffles most of it.
func TestStableHashRemapBound(t *testing.T) {
	const keys = 4000
	s4, s6 := NewStableHash(4), NewStableHash(6)
	h := NewHash()
	loads4, loads6 := make([]int, 4), make([]int, 6)
	stableMoved, naiveMoved := 0, 0
	for k := 0; k < keys; k++ {
		q := query.Query{Node: graph.NodeID(k)}
		if s4.Pick(q, loads4) != s6.Pick(q, loads6) {
			stableMoved++
		}
		if h.Pick(q, loads4) != h.Pick(q, loads6) {
			naiveMoved++
		}
	}
	if frac := float64(stableMoved) / keys; frac > 0.40 {
		t.Fatalf("stablehash moved %.1f%% on 4->6, want ~33%%", 100*frac)
	}
	if frac := float64(naiveMoved) / keys; frac < 0.6 {
		t.Fatalf("modulo hash moved only %.1f%% on 4->6 — comparison baseline broken", 100*frac)
	}
}

// TestStableHashTopologyFollowsMembership pins the fail-vs-leave
// distinction: a Down member keeps its share of the key space (the
// strategy still picks it, the router diverts — §3.4.1 — and its keys
// return on revive), while a Left member is permanently remapped and the
// strategy itself stops picking it.
func TestStableHashTopologyFollowsMembership(t *testing.T) {
	tr := topology.NewTracker(4, nil)
	s := NewStableHash(4)
	r, err := NewFromView(s, tr.View(), true)
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr.Fail(2)
	if err != nil {
		t.Fatal(err)
	}
	r.ApplyView(v)
	// The strategy keeps the failed member in its model; the router
	// diverts every such pick, so the failed queue never grows.
	routeN(r, 400)
	if r.QueueLen(2) != 0 {
		t.Fatal("router queued work for a failed member")
	}
	if r.Diverted() == 0 {
		t.Fatal("no diversions recorded — failed member dropped from the key space instead")
	}
	// Revive restores its keys (no remap happened meanwhile).
	if v, err = tr.Revive(2); err != nil {
		t.Fatal(err)
	}
	r.ApplyView(v)
	loads := make([]int, 4)
	saw := false
	for k := 0; k < 500 && !saw; k++ {
		saw = s.Pick(query.Query{Node: graph.NodeID(k)}, loads) == 2
	}
	if !saw {
		t.Fatal("revived member never picked again")
	}
	// A clean leave, by contrast, drops the member from the strategy.
	if v, err = tr.Leave(2); err != nil {
		t.Fatal(err)
	}
	r.ApplyView(v)
	for k := 0; k < 500; k++ {
		if s.Pick(query.Query{Node: graph.NodeID(k)}, loads) == 2 {
			t.Fatal("stablehash picked a departed member")
		}
	}
}

func TestLandmarkReassignsOnTopologyChange(t *testing.T) {
	g := gen.Grid(12, 1) // 144-node grid
	idx := landmark.BuildIndex(g, []graph.NodeID{0, 11, 132, 143}, 0)
	s := NewLandmark(idx, landmark.Assign(idx, 2), 0)
	tr := topology.NewTracker(2, nil)
	r, err := NewFromView(s, tr.View(), true)
	if err != nil {
		t.Fatal(err)
	}
	_, v := tr.Join("")
	r.ApplyView(v)
	if s.assign.Procs() != 3 {
		t.Fatalf("assignment procs = %d after join, want 3", s.assign.Procs())
	}
	loads := make([]int, 3)
	got := map[int]bool{}
	for u := 0; u < 144; u++ {
		got[s.Pick(query.Query{Node: graph.NodeID(u)}, loads)] = true
	}
	if !got[2] {
		t.Fatal("joined member owns no landmark region")
	}
	// DistanceTo answers for the new member too.
	if d := s.DistanceTo(query.Query{Node: 0}, 2); d >= 1e6 {
		t.Fatalf("DistanceTo(joined) = %v", d)
	}
}

func TestEmbedMeansSurviveTopologyChange(t *testing.T) {
	g := gen.Grid(8, 1)
	idx := landmark.BuildIndex(g, []graph.NodeID{0, 63}, 0)
	emb := buildTestEmbedding(t, g, idx)
	s, err := NewEmbed(emb, 2, 0.5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := topology.NewTracker(2, nil)
	r, err := NewFromView(s, tr.View(), true)
	if err != nil {
		t.Fatal(err)
	}
	// Teach slot 0 a mean, then scale out.
	for i := 0; i < 50; i++ {
		s.Observe(query.Query{Node: 0}, 0)
	}
	learned := append([]float64(nil), s.Mean(0)...)
	slot, v := tr.Join("")
	r.ApplyView(v)
	if s.Mean(slot) == nil {
		t.Fatal("joined slot has no mean")
	}
	for j := range learned {
		if s.Mean(0)[j] != learned[j] {
			t.Fatal("surviving slot's learned mean was reset by the epoch change")
		}
	}
	// The joined slot's mean is deterministic: a second strategy seeing the
	// same topology change produces the identical value.
	s2, err := NewEmbed(emb, 2, 0.5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetTopology(v)
	for j := range s.Mean(slot) {
		if s.Mean(slot)[j] != s2.Mean(slot)[j] {
			t.Fatal("joined-slot mean depends on more than (seed, slot)")
		}
	}
}

// A mean that starts where no node is never wins a query when loads are
// equal, so its processor starves: drawn from the coordinates' bounding box,
// seed 1 below dispatches 1,757 / 0 / 2,243 and seed 3 leaves a slot 422 of
// 4,000. Replays a hotspot list through Route, Next and Done, so every load
// is zero at every decision — no load term to hide a dead slot behind — and
// holds every slot to a share of the traffic that a slot which never wins
// cannot reach.
//
// The floor is 10 %, not an even split, because a mean that wins at all can
// still win little: one that follows a hotspot into an outlying corner of the
// table wins only that corner's queries (Equation 5 moves it halfway to each)
// until a hotspot elsewhere pulls it back. On seed 5 with the landmark-MDS
// table, slot 1 won 8–14 of every 400 queries for 1,600 queries in a row and
// ends at 483 of 4,000 (0.121), and router seeds 1–6 all leave one slot with
// 478–483: that corner is where 12 % of this list's queries are. The smallest share
// over graph seeds 1–20: landmark MDS 0.301 0.215 0.272 0.279 0.121 0.252
// 0.223 0.315 0.305 0.226 0.319 0.244 0.233 0.282 0.313 0.301 0.313 0.209
// 0.269 0.306; the Simplex Downhill table it replaced 0.234 0.298 0.274 0.302
// 0.304 0.282 0.302 0.293 0.282 0.305 0.307 0.317 0.276 0.305 0.245 0.288
// 0.304 0.255 0.238 0.261.
func TestEmbedNoSlotStarves(t *testing.T) {
	const procs, minShare = 3, 0.10
	for seed := int64(1); seed <= 5; seed++ {
		g, err := gen.Preset(gen.WebGraph, 0.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		idx := landmark.BuildIndex(g, landmark.Select(g, 32, 2), 0)
		emb, err := embed.Build(g, idx, embed.Options{Dimensions: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewEmbed(emb, procs, 0.5, 20, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(s, procs, false)
		if err != nil {
			t.Fatal(err)
		}
		qs := query.Hotspot(g, query.WorkloadSpec{NumHotspots: 400, QueriesPerHotspot: 10, Seed: seed})
		for _, q := range qs {
			p := r.Route(q)
			r.Next(p)
			r.Done(p, 1)
		}
		for slot, n := range r.assigned {
			if float64(n) < minShare*float64(len(qs)) {
				t.Errorf("seed %d: slot %d got %d of %d queries (dispatch %v)", seed, slot, n, len(qs), r.assigned)
			}
		}
	}
}
