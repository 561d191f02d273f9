package rpc

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// TestNoLoadLeaksTCP: the router settles every frame it forwarded — a reach
// whose target turns up mid-wave, one whose wave fails mid-way, point
// queries whose only storage replica is gone — so every slot's load, and
// the snapshot row that reports it, reads 0 once each call returns.
func TestNoLoadLeaksTCP(t *testing.T) {
	ctx := context.Background()
	g := gen.LocalWeb(1500, 8, 60, 0.01, 3)
	d, cl := startLoopback(t, g, core.Config{StorageServers: 3, Processors: 4, Policy: core.PolicyHash})
	wantIdle := func(after string) {
		t.Helper()
		snap, err := d.router.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		d.router.mu.Lock()
		defer d.router.mu.Unlock()
		for p, row := range snap.PerProc {
			if l := d.router.rt.Load(p); l != 0 || row.QueueDepth != 0 {
				t.Fatalf("after %s: slot %d has load %d, snapshot row %d; want 0", after, p, l, row.QueueDepth)
			}
		}
	}

	// A reach whose first anchor's subtask finds the target one hop out,
	// beside two more anchors, and one whose second of three anchors has no
	// record.
	nodes := g.Nodes() // ascending: nodes[1] and nodes[2] are not the zero id
	a := nodes[3]
	var target graph.NodeID
	for _, e := range g.OutEdges(a) {
		if e.To != a && e.To != 0 {
			target = e.To
		}
	}
	if target == 0 {
		t.Fatal("fixture: the anchor has no out-edge")
	}
	found := query.Query{Type: query.BoundedReach, Node: a, Anchors: []graph.NodeID{a, nodes[1], nodes[2]},
		Target: target, Hops: 2, VisitBudget: 8, Dir: graph.Out}
	if res, err := cl.Execute(ctx, found); err != nil || !res.Reachable {
		t.Fatalf("reach: %+v, %v; want reachable", res, err)
	}
	wantIdle("a reach found mid-wave")
	missing := g.MaxNodeID() + 5
	failing := found
	failing.Anchors, failing.Target = []graph.NodeID{a, missing, nodes[1]}, missing+1
	if _, err := cl.Execute(ctx, failing); !errors.Is(err, query.ErrUnknownNode) {
		t.Fatalf("reach from a missing anchor: %v, want unknown node", err)
	}
	wantIdle("a reach that failed mid-wave")

	if err := d.KillStorage(0); err != nil {
		t.Fatal(err)
	}
	qs := query.Hotspot(g, query.WorkloadSpec{NumHotspots: 10, QueriesPerHotspot: 8, R: 2, H: 2, Seed: 5})
	failed := 0
	for _, q := range qs {
		if _, err := cl.Execute(ctx, q); err != nil {
			if !errors.Is(err, query.ErrUnavailable) {
				t.Fatalf("query %d: %v, want unavailable", q.ID, err)
			}
			failed++
		}
	}
	if _, err := cl.ExecuteBatch(ctx, qs); !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("batch: %v, want unavailable", err)
	}
	if failed == 0 {
		t.Fatal("no query touched the killed shard: the failing path is not exercised")
	}
	wantIdle("queries that lost their storage")
}
