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

func q(id int, node graph.NodeID) query.Query {
	return query.Query{ID: id, Node: node, Type: query.NeighborAgg, Hops: 2}
}

// pending returns the queries waiting across all of r's queues.
func pending(r *Router) int {
	total := 0
	for p := range r.queues {
		total += r.QueueLen(p)
	}
	return total
}

func TestNewValidation(t *testing.T) {
	if _, err := New(NewHash(), 0, true); err == nil {
		t.Fatal("accepted zero processors")
	}
	if _, err := New(nil, 2, true); err == nil {
		t.Fatal("accepted nil strategy")
	}
}

func TestNextReadyBalances(t *testing.T) {
	s := NewNextReady()
	r, err := New(s, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r.Route(q(i, graph.NodeID(i)))
	}
	for p := 0; p < 4; p++ {
		if got := r.QueueLen(p); got != 10 {
			t.Fatalf("queue %d holds %d, want 10 (assigned %v)", p, got, r.assigned)
		}
	}
}

func TestHashIsModulo(t *testing.T) {
	s := NewHash()
	loads := make([]int, 7)
	for node := graph.NodeID(0); node < 100; node++ {
		want := int(node) % 7
		if got := s.Pick(q(0, node), loads); got != want {
			t.Fatalf("hash(%d) = %d, want %d", node, got, want)
		}
	}
	if s.DecisionUnits() != 1 {
		t.Fatal("hash decision units")
	}
}

func TestRouterFIFOPerQueue(t *testing.T) {
	r, _ := New(NewHash(), 2, false)
	// Nodes 0,2,4 hash to queue 0 in order.
	for _, n := range []graph.NodeID{0, 2, 4} {
		r.Route(q(int(n), n))
	}
	for want := 0; want <= 4; want += 2 {
		got, ok := r.Next(0)
		if !ok || got.ID != want {
			t.Fatalf("Next(0) = %v/%v, want id %d", got.ID, ok, want)
		}
	}
	if _, ok := r.Next(0); ok {
		t.Fatal("empty queue returned work without stealing")
	}
}

func TestStealingFromLongestQueue(t *testing.T) {
	r, _ := New(NewHash(), 3, true)
	// All queries hash to processor 0 (nodes ≡ 0 mod 3).
	for i := 0; i < 9; i++ {
		r.Route(q(i, graph.NodeID(i*3)))
	}
	if r.QueueLen(0) != 9 {
		t.Fatalf("setup failed: queue 0 holds %d", r.QueueLen(0))
	}
	// Processor 2 steals the oldest entry.
	got, ok := r.Next(2)
	if !ok || got.ID != 0 {
		t.Fatalf("steal = %+v/%v, want id 0", got, ok)
	}
	if r.Stolen() != 1 {
		t.Fatalf("Stolen = %d", r.Stolen())
	}
	// Own work still prioritised for processor 0.
	got, _ = r.Next(0)
	if got.ID != 1 {
		t.Fatalf("owner pop = %d, want 1", got.ID)
	}
	exec := r.Executed()
	if exec[2] != 1 || exec[0] != 1 {
		t.Fatalf("executed = %v", exec)
	}
}

func TestStealingDrainsEverything(t *testing.T) {
	r, _ := New(NewHash(), 4, true)
	for i := 0; i < 100; i++ {
		r.Route(q(i, graph.NodeID(i)))
	}
	seen := map[int]bool{}
	p := 0
	for {
		qq, ok := r.Next(p % 4)
		if !ok {
			break
		}
		if seen[qq.ID] {
			t.Fatalf("query %d dispatched twice", qq.ID)
		}
		seen[qq.ID] = true
		p++
	}
	if len(seen) != 100 {
		t.Fatalf("drained %d queries, want 100", len(seen))
	}
	if pending(r) != 0 {
		t.Fatalf("Pending = %d after drain", pending(r))
	}
}

func TestDeadProcessorDiversion(t *testing.T) {
	tr := topology.NewTracker(3, nil)
	r, _ := NewFromView(NewHash(), tr.View(), true)
	setAlive(t, r, tr, 0, false)
	// Node 0 hashes to processor 0, which is down: the query must land on
	// a live processor.
	p := r.Route(q(0, 0))
	if p == 0 {
		t.Fatal("query routed to a dead processor")
	}
	if r.Diverted() != 1 {
		t.Fatalf("Diverted = %d, want 1", r.Diverted())
	}
	if r.Status(0) != topology.Down || r.Status(1) != topology.Active {
		t.Fatal("status bookkeeping wrong")
	}
	// Recovery: bring it back up and the hash target is honoured again.
	setAlive(t, r, tr, 0, true)
	if p := r.Route(q(1, 0)); p != 0 {
		t.Fatalf("recovered processor not used: routed to %d", p)
	}
}

func TestDeadProcessorDistanceAwareDiversion(t *testing.T) {
	s, _ := buildLandmarkStrategy(t, 2, 0)
	tr := topology.NewTracker(2, nil)
	r, err := NewFromView(s, tr.View(), true)
	if err != nil {
		t.Fatal(err)
	}
	loads := []int{0, 0}
	left := s.Pick(q(0, 1), loads)
	setAlive(t, r, tr, left, false)
	// A query belonging to the dead processor's region diverts to the
	// other one (the "second closest processor", Section 3.4.1).
	if p := r.Route(q(0, 1)); p == left {
		t.Fatal("query routed to dead processor")
	}
}

func TestAllDeadPanics(t *testing.T) {
	r, _ := New(NewHash(), 2, true)
	// Hand-built: the tracker refuses to take a tier's last member down.
	r.ApplyView(topology.View{Epoch: 2, Members: []topology.Member{
		{Slot: 0, Status: topology.Down}, {Slot: 1, Status: topology.Down},
	}})
	defer func() {
		if recover() == nil {
			t.Fatal("routing with no live processors did not panic")
		}
	}()
	r.Route(q(0, 0))
}

func TestNoStealingLeavesQueues(t *testing.T) {
	r, _ := New(NewHash(), 2, false)
	r.Route(q(0, 0)) // queue 0
	if _, ok := r.Next(1); ok {
		t.Fatal("stealing disabled but Next(1) returned foreign work")
	}
	if r.QueueLen(0) != 1 {
		t.Fatal("query lost")
	}
}

func buildLandmarkStrategy(t *testing.T, procs int, loadFactor float64) (*Landmark, *graph.Graph) {
	t.Helper()
	g := gen.Grid(10, 1) // path: two clear regions
	ls := []graph.NodeID{0, 9}
	idx := landmark.BuildIndex(g, ls, 0)
	a := landmark.Assign(idx, procs)
	return NewLandmark(idx, a, loadFactor), g
}

func TestLandmarkRoutesByRegion(t *testing.T) {
	s, _ := buildLandmarkStrategy(t, 2, 0)
	loads := []int{0, 0}
	left := s.Pick(q(0, 1), loads)
	right := s.Pick(q(1, 8), loads)
	if left == right {
		t.Fatalf("path endpoints routed to same processor %d", left)
	}
	// Nearby nodes co-route.
	if s.Pick(q(2, 2), loads) != left {
		t.Fatal("node 2 should join node 1's processor")
	}
	if s.Pick(q(3, 7), loads) != right {
		t.Fatal("node 7 should join node 8's processor")
	}
	if s.DecisionUnits() != 2 {
		t.Fatalf("DecisionUnits = %d", s.DecisionUnits())
	}
}

func TestLandmarkLoadBalancing(t *testing.T) {
	// Equation 3: a hot processor is abandoned once load/loadFactor
	// exceeds the distance gap.
	s, _ := buildLandmarkStrategy(t, 2, 1) // loadFactor 1: load dominates
	left := s.Pick(q(0, 1), []int{0, 0})
	other := 1 - left
	// Pile load on the preferred side: distance gap for node 1 is
	// (9-1)-(1) = 7ish, so load 20 overwhelms it.
	loads := []int{0, 0}
	loads[left] = 20
	if got := s.Pick(q(1, 1), loads); got != other {
		t.Fatalf("hot processor retained the query (got %d)", got)
	}
	// With a huge load factor the same load is ignored.
	s2, _ := buildLandmarkStrategy(t, 2, 1e9)
	if got := s2.Pick(q(2, 1), loads); got != left {
		t.Fatalf("load factor 1e9 should ignore load (got %d)", got)
	}
}

func buildEmbedStrategy(t *testing.T, procs int, alpha, loadFactor float64) (*Embed, *graph.Graph) {
	t.Helper()
	g := gen.Grid(12, 1)
	idx := landmark.BuildIndex(g, []graph.NodeID{0, 11}, 0)
	emb, err := embed.Build(g, idx, embed.Options{Dimensions: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewEmbed(emb, procs, alpha, loadFactor, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s, g
}

func TestEmbedValidation(t *testing.T) {
	g := gen.Grid(4, 1)
	idx := landmark.BuildIndex(g, []graph.NodeID{0, 3}, 0)
	emb, err := embed.Build(g, idx, embed.Options{Dimensions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEmbed(emb, 0, 0.5, 20, 1); err == nil {
		t.Fatal("accepted zero processors")
	}
	if _, err := NewEmbed(emb, 2, -0.1, 20, 1); err == nil {
		t.Fatal("accepted alpha < 0")
	}
	if _, err := NewEmbed(emb, 2, 1.1, 20, 1); err == nil {
		t.Fatal("accepted alpha > 1")
	}
}

func TestEmbedEMAConverges(t *testing.T) {
	s, _ := buildEmbedStrategy(t, 2, 0.5, 0)
	loads := []int{0, 0}
	// Send many queries on node 1's end; the receiving processor's mean
	// must drift towards node 1's coordinates.
	var chosen int
	for i := 0; i < 30; i++ {
		chosen = s.Pick(q(i, 1), loads)
		s.Observe(q(i, 1), chosen)
	}
	c := s.emb.Coords(1)
	if d := distTo(s.Mean(chosen), c); d > 1.0 {
		t.Fatalf("EMA did not converge: distance %v", d)
	}
	// Stickiness: nearby node 2 should now prefer the same processor.
	if got := s.Pick(q(99, 2), loads); got != chosen {
		t.Fatalf("nearby query routed to %d, want %d", got, chosen)
	}
}

func TestEmbedAlphaOneFreezesMeans(t *testing.T) {
	s, _ := buildEmbedStrategy(t, 2, 1.0, 0)
	before := append([]float64(nil), s.Mean(0)...)
	s.Observe(q(0, 3), 0)
	after := s.Mean(0)
	for j := range before {
		if before[j] != after[j] {
			t.Fatal("alpha=1 should retain the initial mean")
		}
	}
}

func TestEmbedAlphaZeroTracksLastQuery(t *testing.T) {
	s, g := buildEmbedStrategy(t, 2, 0.0, 0)
	_ = g
	s.Observe(q(0, 5), 1)
	c := s.emb.Coords(5)
	m := s.Mean(1)
	for j := range m {
		if m[j] != float64(c[j]) {
			t.Fatalf("alpha=0 mean != last coords at dim %d", j)
		}
	}
}

func TestEmbedUnknownNodeFallsBack(t *testing.T) {
	s, _ := buildEmbedStrategy(t, 3, 0.5, 20)
	loads := []int{5, 0, 7}
	if got := s.Pick(q(0, 40000), loads); got != 1 {
		t.Fatalf("unembedded node routed to %d, want least-loaded 1", got)
	}
	// Observe on unknown node must not corrupt means.
	before := append([]float64(nil), s.Mean(1)...)
	s.Observe(q(0, 40000), 1)
	for j := range before {
		if s.Mean(1)[j] != before[j] {
			t.Fatal("Observe on unknown node mutated the mean")
		}
	}
}

func TestEmbedDecisionUnits(t *testing.T) {
	s, _ := buildEmbedStrategy(t, 4, 0.5, 20)
	if s.DecisionUnits() != 4*3 {
		t.Fatalf("DecisionUnits = %d, want 12 (P*D)", s.DecisionUnits())
	}
}

func TestTopologyLocalityEndToEnd(t *testing.T) {
	// The defining smart-routing property, checked for both strategies on
	// a 2-region graph: queries from one hotspot overwhelmingly co-route.
	g := gen.Grid(20, 1)
	idx := landmark.BuildIndex(g, []graph.NodeID{0, 19}, 0)
	a := landmark.Assign(idx, 2)
	emb, err := embed.Build(g, idx, embed.Options{Dimensions: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	embedS, err := NewEmbed(emb, 2, 0.5, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Strategy{
		"landmark": NewLandmark(idx, a, 0),
		"embed":    embedS,
	} {
		loads := []int{0, 0}
		// Hotspot at nodes 1..4 vs hotspot at 15..18.
		var leftProcs, rightProcs []int
		for i := 1; i <= 4; i++ {
			p := s.Pick(q(i, graph.NodeID(i)), loads)
			s.Observe(q(i, graph.NodeID(i)), p)
			leftProcs = append(leftProcs, p)
		}
		for i := 15; i <= 18; i++ {
			p := s.Pick(q(i, graph.NodeID(i)), loads)
			s.Observe(q(i, graph.NodeID(i)), p)
			rightProcs = append(rightProcs, p)
		}
		same := func(ps []int) bool {
			for _, p := range ps {
				if p != ps[0] {
					return false
				}
			}
			return true
		}
		if !same(leftProcs) || !same(rightProcs) {
			t.Fatalf("%s: hotspot queries scattered: left=%v right=%v", name, leftProcs, rightProcs)
		}
		if leftProcs[0] == rightProcs[0] {
			t.Fatalf("%s: both hotspots on one processor", name)
		}
	}
}

func TestTableBytes(t *testing.T) {
	lm, _ := buildLandmarkStrategy(t, 2, 0) // 10 nodes: d(u,p) 10 x 2 and 2 landmark rows of 10
	em, _ := buildEmbedStrategy(t, 2, 0.5, 0)
	coords := em.emb.StorageBytes()
	if coords != 12*3*4 {
		t.Fatalf("12 nodes in 3 dimensions take %d bytes", coords)
	}
	for _, c := range []struct {
		name string
		s    Strategy
		emb  *embed.Embedding
		want int64
	}{
		{"hash", NewHash(), nil, 0},
		{"hash beside a k-NN embedding", NewHash(), em.emb, coords},
		{"landmark: its table and its index", lm, nil, 40 + 40},
		{"landmark beside a k-NN embedding", lm, em.emb, 40 + 40 + coords},
		{"embed, the router holding its table", em, em.emb, coords},
		{"embed, the router holding none", em, nil, coords},
	} {
		if got := tableBytes(c.s, c.emb); got != c.want {
			t.Errorf("%s: tableBytes = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSnapshotCountsWhatTheRouterDecides builds the router's half of a stats
// snapshot after a failure that diverts picks, a departure that re-routes a
// backlog and a drain by stealing, over three epochs: every total and
// per-slot row is the router's own count — with every dispatch acked, each
// slot's load is 0 and the load digest holds one entry per decision — what
// only a transport counts (executions, caches) is left zero, and the
// coordinate table handed in is what the snapshot describes.
func TestSnapshotCountsWhatTheRouterDecides(t *testing.T) {
	tr := topology.NewTracker(3, nil)
	r, err := NewFromView(NewHash(), tr.View(), true)
	if err != nil {
		t.Fatal(err)
	}
	routeN(r, 90)
	v, err := tr.Fail(2)
	if err != nil {
		t.Fatal(err)
	}
	r.ApplyView(v)
	routeN(r, 30)
	if v, err = tr.Leave(1); err != nil {
		t.Fatal(err)
	}
	moved := r.ApplyView(v)
	for {
		if _, ok := r.Next(0); !ok {
			break
		}
		r.Done(0, 1)
	}
	if r.Diverted() == 0 || moved == 0 || r.Stolen() == 0 {
		t.Fatalf("fixture: %d diverted, %d re-routed, %d stolen; want each > 0", r.Diverted(), moved, r.Stolen())
	}

	snap := r.Snapshot("hash", Coords{})
	if snap.Policy != "hash" || snap.Strategy != "hash" || snap.Processors != 1 || snap.Epoch != 3 ||
		snap.Stolen != int64(r.Stolen()) || snap.Diverted != int64(r.Diverted()) || snap.Reassigned != int64(moved) ||
		len(snap.Epochs) != 2 || snap.Epochs[1].Left != 1 || snap.Epochs[1].Reassigned != int64(moved) ||
		snap.RoutingTableBytes != 0 || snap.EmbedDimensions != 0 || snap.EmbedProvider != "" ||
		snap.QueueDepth.Count != int64(120+moved) {
		t.Fatalf("snapshot header %+v", snap)
	}
	if len(snap.PerProc) != 3 {
		t.Fatalf("%d rows, want one per slot", len(snap.PerProc))
	}
	assigned := r.assigned
	var stolen, diverted int64
	for p, row := range snap.PerProc {
		if row.Proc != p || row.Assigned != int64(assigned[p]) || row.Executed != 0 || row.QueueDepth != 0 || row.Cache.Touches() != 0 {
			t.Errorf("slot %d: row %+v", p, row)
		}
		stolen += row.Stolen
		diverted += row.Diverted
	}
	rows := snap.PerProc
	if rows[0].Status != "active" || rows[1].Status != "left" || rows[2].Status != "down" ||
		rows[0].Stolen != snap.Stolen || rows[0].Diverted != 0 || rows[1].Diverted == 0 || rows[2].Diverted == 0 ||
		stolen != snap.Stolen || diverted != snap.Diverted {
		t.Errorf("rows %+v: want slot 0 active with every steal, 1 left and 2 down with the diversions, summing to the totals", rows)
	}

	em, _ := buildEmbedStrategy(t, 2, 0.5, 0)
	snap = r.Snapshot("hash", Coords{Embedding: em.emb, Source: "learned"})
	if snap.EmbedDimensions != int64(em.emb.D) || snap.EmbedProvider != "learned" || snap.RoutingTableBytes != em.emb.StorageBytes() {
		t.Errorf("with a k-NN table: %d dimensions from %q, %d table bytes; want %d from \"learned\", %d",
			snap.EmbedDimensions, snap.EmbedProvider, snap.RoutingTableBytes, em.emb.D, em.emb.StorageBytes())
	}
}
