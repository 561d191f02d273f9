package grouting_test

import (
	"context"
	"errors"
	"testing"
	"time"

	grouting "repro"
)

// TestClientTwoTransportsMultiAnchor is the multi-anchor acceptance test:
// a pinned mixed workload — the classic traversals plus PatternMatch and
// BoundedReach — runs unmodified against the virtual-time system and a
// real loopback TCP cluster, producing results identical to each other
// and to the oracle.
func TestClientTwoTransportsMultiAnchor(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 9, QueriesPerHotspot: 5, R: 2, H: 2,
		Types: grouting.MixedTypes, VisitBudget: 8, Seed: 3,
	})
	var patterns, reaches int
	for _, q := range qs {
		switch q.Type {
		case grouting.PatternMatch:
			patterns++
		case grouting.BoundedReach:
			reaches++
		}
	}
	if patterns == 0 || reaches == 0 {
		t.Fatalf("workload has %d patterns, %d bounded reaches; want both > 0", patterns, reaches)
	}
	ctx := context.Background()

	local, remote := twoTransports(t, g, grouting.Config{
		Processors: 3, StorageServers: 2, Policy: grouting.PolicyEmbed, Dimensions: 4, Seed: 1,
	})

	clients := []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}}

	var perClient [2][]grouting.Result
	for i, tc := range clients {
		results, err := runWorkload(ctx, tc.c, qs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, q := range qs {
			if want := grouting.Answer(g, q); results[q.ID] != want {
				t.Fatalf("%s: query %d (%v): got %+v, want %+v",
					tc.name, q.ID, q.Type, results[q.ID], want)
			}
		}
		perClient[i] = results
	}
	for id := range qs {
		if perClient[0][id] != perClient[1][id] {
			t.Fatalf("query %d differs between transports: %+v vs %+v",
				id, perClient[0][id], perClient[1][id])
		}
	}

	// A hand-built template through the public re-exports (Pattern,
	// PatternNode, PatternEdge): both transports agree with the oracle.
	anchor := g.Nodes()[1]
	adhoc := grouting.Query{
		Type: grouting.PatternMatch,
		Node: anchor,
		Pattern: &grouting.Pattern{
			Nodes: []grouting.PatternNode{{Anchor: anchor}, {}},
			Edges: []grouting.PatternEdge{{From: 0, To: 1}},
		},
		Dir: grouting.Out,
	}
	for _, tc := range clients {
		got, err := tc.c.Execute(ctx, adhoc)
		if err != nil {
			t.Fatalf("%s: ad-hoc pattern: %v", tc.name, err)
		}
		if want := grouting.Answer(g, adhoc); got != want {
			t.Fatalf("%s: ad-hoc pattern: got %+v, want %+v", tc.name, got, want)
		}
	}

	// Multi-anchor admission: a query anchored at a node outside the graph
	// is the same typed error on both transports' classic path analogue.
	bad := grouting.Query{
		Type: grouting.BoundedReach, Node: 10,
		Anchors: []grouting.NodeID{10}, Target: 0,
		Hops: 2, VisitBudget: 4, Dir: grouting.Out,
	}
	for _, tc := range clients {
		if _, err := tc.c.Execute(ctx, bad); !errors.Is(err, grouting.ErrBadQuery) {
			t.Fatalf("%s: target-less bounded reach error = %v, want ErrBadQuery", tc.name, err)
		}
	}
}

// TestClientStreamCancellationMultiAnchor is the satellite's mid-stream
// cancellation case: an endless mixed multi-anchor feed through
// ExecuteStream is cancelled mid-flight on both transports. Outcomes
// delivered before the cancel must match the oracle, racing outcomes must
// carry a typed context/transport error, and the stream must close. Under
// -race this exercises the concurrent wave-cancellation paths.
func TestClientStreamCancellationMultiAnchor(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 40, QueriesPerHotspot: 10, R: 2, H: 2,
		Types:       []grouting.QueryType{grouting.PatternMatch, grouting.BoundedReach},
		VisitBudget: 4, Seed: 5,
	})

	local, remote := twoTransports(t, g, grouting.Config{Processors: 2, StorageServers: 2, Policy: grouting.PolicyHash, Seed: 2})

	for _, tc := range []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			in := make(chan grouting.Query)
			go func() {
				for i := 0; ; i++ {
					select {
					case in <- qs[i%len(qs)]:
					case <-ctx.Done():
						return
					}
				}
			}()
			out := tc.c.ExecuteStream(ctx, in)

			for seen := 0; seen < 25; seen++ {
				o, ok := <-out
				if !ok {
					t.Fatal("stream closed before cancellation")
				}
				if o.Err != nil {
					t.Fatalf("pre-cancel outcome error: %v", o.Err)
				}
				if want := grouting.Answer(g, o.Query); o.Result != want {
					t.Fatalf("streamed query %d (%v): got %+v, want %+v",
						o.Query.ID, o.Query.Type, o.Result, want)
				}
			}
			cancel()

			closed := make(chan struct{})
			go func() {
				defer close(closed)
				for o := range out {
					if o.Err == nil {
						if want := grouting.Answer(g, o.Query); o.Result != want {
							t.Errorf("post-cancel query %d: got %+v, want %+v", o.Query.ID, o.Result, want)
						}
					} else if !errors.Is(o.Err, context.Canceled) && !errors.Is(o.Err, grouting.ErrUnavailable) {
						t.Errorf("post-cancel outcome error = %v, want context.Canceled or ErrUnavailable", o.Err)
					}
				}
			}()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("stream did not close after cancellation")
			}
		})
	}
}
