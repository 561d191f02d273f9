package core

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/query"
)

// mirror applies acked mutations to oracle, the graph a test answers its
// queries against: the system never touches the graph it was built from.
func mirror(t *testing.T, oracle *graph.Graph, muts ...query.Mutation) {
	t.Helper()
	for _, m := range muts {
		if err := m.Apply(oracle); err != nil {
			t.Fatalf("oracle rejects acked %v: %v", m, err)
		}
	}
}

// TestMutateConflictKeepsPrefix: a batch stops at the first conflicting
// mutation, the applied prefix stays applied, and the error is typed.
func TestMutateConflictKeepsPrefix(t *testing.T) {
	g := testGraph()
	sys, err := NewSystem(g, testConfig(PolicyHash))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	const lbl = "t"
	u := g.MaxNodeID()
	n, err := ses.Mutate(
		query.Mutation{Op: query.MutUpsertNode, Node: u, Label: lbl},
		query.Mutation{Op: query.MutRemoveEdge, Node: u, To: 5}, // no such edge
		query.Mutation{Op: query.MutAddEdge, Node: u, To: 7, Label: lbl},
	)
	if n != 1 || !errors.Is(err, query.ErrConflict) {
		t.Fatalf("applied %d, err %v; want 1, ErrConflict", n, err)
	}
	if err := sys.Known(u); err != nil {
		t.Fatalf("acked prefix lost: %v", err)
	}
	if rec, _, _ := sys.tier.Fetch(u); len(rec.Out) != 0 {
		t.Fatal("mutation past the failure point was applied")
	}
	if g.Exists(u) {
		t.Fatal("the mutation reached the graph the system was built from")
	}
	// An edge onto a node that was never created is also a conflict.
	if _, err := ses.Mutate(query.Mutation{Op: query.MutAddEdge, Node: g.MaxNodeID() + 10, To: 0, Label: lbl}); !errors.Is(err, query.ErrConflict) {
		t.Fatalf("edge on missing endpoint: err = %v, want ErrConflict", err)
	}
}

// TestNothingToWriteKeepsCaches: the repeat of an acked AddEdge has nothing
// to write, and the session's empty commit leaves every processor's cache as
// it was — each cached endpoint still resident, no counter moved — and the
// virtual clock where it stood. The session's caches took the first write's
// edits in the call that stored it, so none can hold an older record.
func TestNothingToWriteKeepsCaches(t *testing.T) {
	g := testGraph()
	sys, err := NewSystem(g, testConfig(PolicyHash))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	u, v := graph.NodeID(0), graph.NodeID(1)
	for g.HasEdge(u, v) {
		v++
	}
	add := query.Mutation{Op: query.MutAddEdge, Node: u, To: v}
	if _, err := ses.Mutate(add); err != nil {
		t.Fatal(err)
	}
	// Queries anchored at u and at each of its neighbours land on different
	// processors and each reads u's record.
	anchors := append([]graph.NodeID{u, v}, g.OutEdges(u)[0].To, g.InEdges(u)[0].To)
	for _, a := range anchors {
		if _, _, err := ses.Execute(query.Query{Type: query.NeighborAgg, Node: a, Hops: 1, Dir: graph.Both}); err != nil {
			t.Fatal(err)
		}
	}
	type cached struct {
		u, v  bool
		stats cache.Stats
	}
	snapshot := func() []cached {
		var out []cached
		for _, p := range ses.procs {
			out = append(out, cached{p.cache.Contains(u), p.cache.Contains(v), p.cache.Stats()})
		}
		return out
	}
	before, now := snapshot(), ses.Now()
	if resident := slices.IndexFunc(before, func(c cached) bool { return c.u && c.v }); resident < 0 {
		t.Fatal("no processor caches both endpoints")
	}

	if n, err := ses.Mutate(add); n != 1 || err != nil {
		t.Fatalf("repeat: applied %d, %v", n, err)
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) || ses.Now() != now {
		t.Fatalf("the repeat moved the caches from %+v to %+v, the clock by %v", before, after, ses.Now()-now)
	}
}

// TestMutateReadYourWrites: after an acked write the same session's
// queries see it — the processor caches were evicted and storage rewritten
// — and the virtual clock paid for the replicated write round trips.
func TestMutateReadYourWrites(t *testing.T) {
	g := testGraph()
	sys, err := NewSystem(g, testConfig(PolicyEmbed))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache on node 5's neighbourhood first, so the write path
	// must actually invalidate something.
	q5 := query.Query{Type: query.NeighborAgg, Node: 5, Hops: 1, Dir: graph.Out}
	if _, _, err := ses.Execute(q5); err != nil {
		t.Fatal(err)
	}
	const lbl = "t"
	u := g.MaxNodeID()
	before := ses.Now()
	muts := []query.Mutation{
		{Op: query.MutUpsertNode, Node: u, Label: lbl},
		{Op: query.MutAddEdge, Node: 5, To: u, Label: lbl},
		{Op: query.MutAddEdge, Node: u, To: 9, Label: lbl},
	}
	if _, err := ses.Mutate(muts...); err != nil {
		t.Fatal(err)
	}
	mirror(t, g, muts...)
	if ses.Now() <= before {
		t.Fatal("writes advanced no virtual time")
	}
	if ses.Mutations() != 3 {
		t.Fatalf("Mutations() = %d, want 3", ses.Mutations())
	}
	for _, q := range []query.Query{
		q5,
		{Type: query.NeighborAgg, Node: u, Hops: 2, Dir: graph.Both},
		{Type: query.Reachability, Node: 5, Target: 9, Hops: 2},
	} {
		res, _, err := ses.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := query.Answer(g, q); res != want {
			t.Fatalf("stale read after acked write: %v got %+v, want %+v", q.Type, res, want)
		}
	}
}

// TestMutateDuringMigration is the write-path/placement race property
// test: a session interleaves acked mutations with adaptive-placement
// cycles whose copy-then-tombstone moves chase a drifting hot spot. Two
// invariants must hold at every step, no matter how moves and writes
// interleave: no acked write is ever lost (every query agrees with the
// live graph), and no removed edge is ever resurrected by a stale copy.
func TestMutateDuringMigration(t *testing.T) {
	const base = 800
	g := gen.LocalWeb(base, 6, 60, 0.01, 11)
	cfg := testConfig(PolicyEmbed)
	cfg.AdaptivePlacement = true
	cfg.PlacementBudget = 4 << 10
	cfg.PlacementMinReads = 2
	cfg.CacheBytes = 1 << 10 // tiny cache: reads hit storage and accrue heat
	cfg.StorageAffinity = 4
	sys, err := NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	check := func(u graph.NodeID, hops int) {
		t.Helper()
		q := query.Query{Type: query.NeighborAgg, Node: u, Hops: hops, Dir: graph.Out}
		res, _, err := ses.Execute(q)
		if err != nil {
			t.Fatalf("query on %d: %v", u, err)
		}
		if want := query.Answer(g, q); res != want {
			t.Fatalf("node %d (hops %d): got %+v, want %+v — a migration lost or resurrected a write", u, hops, res, want)
		}
	}

	const lbl = "live"
	var acked []graph.NodeID
	type edge struct{ u, v graph.NodeID }
	var removed []edge
	moved := 0
	for round := 0; round < 6; round++ {
		// A pinned hot spot that drifts each round: repeated 1-hop reads
		// concentrate heat so the next tick wants to migrate this
		// neighbourhood.
		center := graph.NodeID((round * 131) % base)
		for i := 0; i < 12; i++ {
			check(center, 1)
		}
		// Acked writes wired into the very records about to move: a new
		// node joins the hot neighbourhood, and a scratch edge is added
		// then tombstoned.
		u := g.MaxNodeID()
		scratch := graph.NodeID((round*29 + 5) % base)
		muts := []query.Mutation{
			{Op: query.MutUpsertNode, Node: u, Label: lbl},
			{Op: query.MutAddEdge, Node: center, To: u, Label: lbl},
			{Op: query.MutAddEdge, Node: u, To: graph.NodeID((round*17 + 3) % base), Label: lbl},
			{Op: query.MutAddEdge, Node: u, To: scratch, Label: lbl},
			{Op: query.MutRemoveEdge, Node: u, To: scratch},
		}
		if n, err := ses.Mutate(muts...); err != nil || n != 5 {
			t.Fatalf("round %d: applied %d, err %v", round, n, err)
		}
		mirror(t, g, muts...)
		acked = append(acked, u)
		removed = append(removed, edge{u, scratch})
		// The migration cycle races everything above.
		moved += ses.PlacementTick()
		// Every acked write is still visible; every tombstone still holds.
		for _, a := range acked {
			check(a, 1)
			check(a, 2)
		}
		for _, e := range removed {
			if g.HasEdge(e.u, e.v) {
				t.Fatalf("edge %d->%d resurrected in the graph", e.u, e.v)
			}
			check(e.u, 1)
		}
		check(center, 2)
	}
	if moved == 0 {
		t.Fatal("no migrations raced the writes — the property test is vacuous")
	}
	pc := ses.Snapshot().Placement
	if pc.Moved != int64(moved) {
		t.Fatalf("snapshot says %d moves, ticks returned %d", pc.Moved, moved)
	}
	if pc.MovedBytes > pc.Cycles*cfg.PlacementBudget {
		t.Fatalf("migration volume %dB exceeds %d cycles x %dB budget",
			pc.MovedBytes, pc.Cycles, cfg.PlacementBudget)
	}
}

// TestMutateUnreadablePreImage: at StorageReplicas = 1 with a record's only
// owner failed, a mutation that touches the record cannot read its
// pre-image. It fails with the typed ErrUnavailable and writes nothing, and
// Mutate reports the prefix applied before it.
func TestMutateUnreadablePreImage(t *testing.T) {
	g := testGraph()
	sys, err := NewSystem(g, testConfig(PolicyLandmark))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	owner := func(u graph.NodeID) int { return sys.store.ReplicasFor(uint64(u), nil)[0] }
	// h lives on the shard that stays up, v on the one that fails.
	h, v := graph.NodeID(0), graph.NodeID(1)
	for owner(v) == owner(h) || g.HasEdge(h, v) {
		v++
	}
	stored := func(u graph.NodeID) []byte {
		val, ok := sys.store.Get(uint64(u))
		if !ok {
			t.Fatalf("node %d has no record", u)
		}
		return val
	}
	preV := stored(v)
	if err := sys.FailStorage(owner(v)); err != nil {
		t.Fatal(err)
	}
	const lbl = "t"
	n, err := ses.Mutate(
		query.Mutation{Op: query.MutUpsertNode, Node: h, Label: lbl},
		query.Mutation{Op: query.MutAddEdge, Node: h, To: v, Label: lbl},
		query.Mutation{Op: query.MutUpsertNode, Node: h},
	)
	if n != 1 || !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("applied %d, err %v; want 1 and ErrUnavailable", n, err)
	}
	want := gstore.RecordOf(g, h)
	want.NodeLabel, _ = g.LabelID(lbl)
	if got := stored(h); !bytes.Equal(got, gstore.Encode(nil, want)) {
		t.Fatal("node h's record is not the applied prefix's: the failed mutation wrote it")
	}
	if err := sys.ReviveStorage(owner(v)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored(v), preV) {
		t.Fatal("the failed mutation rewrote the unreadable record")
	}
}
