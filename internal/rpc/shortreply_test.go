package rpc

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// startAckServer serves a peer that answers every request with a bare
// Response{OK: true} — what a buggy or mismatched daemon's reply looks like
// once the codec has dropped its empty payload.
func startAckServer(t *testing.T) string {
	t.Helper()
	return startServer(t, func(context.Context, *Request) Response { return Response{OK: true} }, readPaths[0].wrap, nil)
}

// TestShortReplyFailsTheCall: an OK reply that carries fewer entries than
// the request asked for is a failed peer, never an index to follow. A
// storage client retries the keys on their next replica; a router answers
// the batch with the typed unavailable error. Before the length checks
// both indexed the reply and the process died.
func TestShortReplyFailsTheCall(t *testing.T) {
	ctx := context.Background()
	g := gen.LocalWeb(300, 4, 30, 0.01, 5)
	ids := make([]graph.NodeID, 0, 64)
	for id := graph.NodeID(0); id < g.MaxNodeID() && len(ids) < cap(ids); id++ {
		if g.Exists(id) {
			ids = append(ids, id)
		}
	}

	t.Run("multiget, no other replica", func(t *testing.T) {
		sc, err := DialStorageReplicated([]string{startAckServer(t)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		recs, err := sc.MultiGet(ctx, ids)
		if !errors.Is(err, query.ErrUnavailable) || len(recs) != 0 {
			t.Fatalf("MultiGet = %d records, err %v; want none and unavailable", len(recs), err)
		}
	})

	t.Run("multiget, fails over", func(t *testing.T) {
		_, addrs := startStorageShards(t, 1)
		sc, err := DialStorageReplicated([]string{addrs[0], startAckServer(t)}, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		if err := sc.LoadGraph(ctx, g); err != nil {
			t.Fatal(err)
		}
		recs, err := sc.MultiGet(ctx, ids)
		if err != nil || len(recs) != len(ids) {
			t.Fatalf("MultiGet = %d of %d records, err %v; want all from the healthy replica", len(recs), len(ids), err)
		}
		if sc.Failovers() == 0 {
			t.Error("no failover counted: no key preferred the short-replying shard, the case is not exercised")
		}
	})

	t.Run("router", func(t *testing.T) {
		procs := []string{startAckServer(t), startAckServer(t)}
		strat, err := BuildStrategy("hash", g, len(procs), 7)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewRouterServer("127.0.0.1:0", RouterConfig{ProcessorAddrs: procs, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		cl, err := DialRouter(ctx, rs.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		qs := make([]query.Query, 16) // enough for hash routing to use both processors: the fan-out path
		for i := range qs {
			qs[i] = query.Query{ID: i, Type: query.NeighborAgg, Node: ids[i], Hops: 1, Dir: graph.Out}
		}
		if _, err := cl.ExecuteBatch(ctx, qs); !errors.Is(err, query.ErrUnavailable) {
			t.Errorf("batch over two short-replying processors: err = %v, want unavailable", err)
		}
		if _, err := cl.Execute(ctx, qs[0]); !errors.Is(err, query.ErrUnavailable) {
			t.Errorf("single query: err = %v, want unavailable", err)
		}
		// The same for a wave of subtasks answered with too few partials.
		reach := query.Query{Type: query.BoundedReach, Node: ids[1], Anchors: ids[1:5], Target: ids[5], Hops: 2, VisitBudget: 4, Dir: graph.Out}
		if _, err := cl.Execute(ctx, reach); !errors.Is(err, query.ErrUnavailable) {
			t.Errorf("multi-anchor query: err = %v, want unavailable", err)
		}
	})
}
