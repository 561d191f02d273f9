package query

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestValidateAcceptsWellFormedQueries(t *testing.T) {
	for _, q := range []Query{
		{Type: NeighborAgg, Node: 3, Hops: 2, Dir: graph.Out},
		{Type: NeighborAgg, Node: 0, Hops: 0, Dir: graph.Both, CountLabel: "x"},
		{Type: RandomWalk, Node: 9, Hops: 5, RestartProb: 0.15, Dir: graph.Out, Seed: 1},
		{Type: RandomWalk, Node: 9, Hops: 7, RestartProb: 1.0, Dir: graph.In},
		{Type: Reachability, Node: 3, Target: 3, Hops: 0},
		{Type: Reachability, Node: 0, Target: 15, Hops: 4},
		{Type: Reachability, Node: 0, Target: 0, Hops: 2}, // self-reachability of node 0
	} {
		if err := q.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", q, err)
		}
	}
}

func TestValidateRejectsMalformedQueries(t *testing.T) {
	cases := []struct {
		name string
		q    Query
	}{
		{"unknown type", Query{Type: Type(42), Node: 1, Hops: 1}},
		{"negative hops agg", Query{Type: NeighborAgg, Node: 1, Hops: -1, Dir: graph.Out}},
		{"negative hops walk", Query{Type: RandomWalk, Node: 1, Hops: -3, Dir: graph.Out}},
		{"negative hops reach", Query{Type: Reachability, Node: 1, Target: 2, Hops: -2}},
		{"bad direction", Query{Type: NeighborAgg, Node: 1, Hops: 1, Dir: graph.Direction(7)}},
		{"restart prob negative", Query{Type: RandomWalk, Node: 1, Hops: 2, RestartProb: -0.5, Dir: graph.Out}},
		{"restart prob above one", Query{Type: RandomWalk, Node: 1, Hops: 2, RestartProb: 1.5, Dir: graph.Out}},
		{"missing reachability target", Query{Type: Reachability, Node: 7, Hops: 3}},
	}
	for _, c := range cases {
		err := c.q.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.q)
			continue
		}
		if !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: error %v is not ErrBadQuery", c.name, err)
		}
	}
}

func TestHotspotGeneratesValidQueries(t *testing.T) {
	g := graph.New()
	g.AddNodes(200)
	for i := 0; i < 199; i++ {
		g.AddEdgeFast(graph.NodeID(i), graph.NodeID(i+1))
		g.AddEdgeFast(graph.NodeID(i+1), graph.NodeID(i%7))
	}
	qs := Hotspot(g, WorkloadSpec{NumHotspots: 40, QueriesPerHotspot: 6, Seed: 13})
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Fatalf("generated query %d invalid: %v (%+v)", q.ID, err, q)
		}
	}
}

// TestHotspotMixedTypes: the full mix generates valid queries of every kind
// it names, each multi-anchor query anchored at its Node.
func TestHotspotMixedTypes(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 2)
	qs := Hotspot(g, WorkloadSpec{NumHotspots: 10, QueriesPerHotspot: 6, Types: MixedTypesKNN, Seed: 4})
	kinds := map[Type]int{}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Fatalf("generated query %d invalid: %v (%+v)", q.ID, err, q)
		}
		if q.Type.MultiAnchor() && q.AnchorNodes()[0] != q.Node {
			t.Fatalf("query %d (%v): first anchor %d, Node %d", q.ID, q.Type, q.AnchorNodes()[0], q.Node)
		}
		kinds[q.Type]++
	}
	for _, typ := range MixedTypesKNN {
		if kinds[typ] == 0 {
			t.Errorf("no %v query generated: %v", typ, kinds)
		}
	}
}
