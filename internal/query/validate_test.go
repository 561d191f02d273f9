package query

import (
	"errors"
	"reflect"
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

// stuffed returns q with every field that is zero in it set to something
// that is not: the fields its kind reads change its answer (on both sides of
// the comparison), and the ones it does not read must not.
func stuffed(q Query) Query {
	if q.Target == 0 {
		q.Target = q.Node + 1
	}
	if q.RestartProb == 0 {
		q.RestartProb = 0.5
	}
	if q.CountLabel == "" {
		q.CountLabel = "no-such-label"
	}
	if q.Seed == 0 {
		q.Seed = 99
	}
	if q.Anchors == nil {
		q.Anchors = []graph.NodeID{q.Node}
	}
	if q.Pattern == nil {
		q.Pattern = &Pattern{Nodes: []PatternNode{{Anchor: q.Node}, {}}, Edges: []PatternEdge{{From: 0, To: 1}}}
	}
	if q.VisitBudget == 0 {
		q.VisitBudget = 3
	}
	if q.K == 0 {
		q.K = 2
	}
	return q
}

// TestReadsKeepsTheAnswer is the projection's contract, over the hotspot
// workload and the mix with every kind on two seeds, as generated and with
// every unset field stuffed: a query and its projection get the same answer
// from the oracles and the same verdict from Validate, and the projection
// zeroes every field its kind does not read.
func TestReadsKeepsTheAnswer(t *testing.T) {
	for _, seed := range []int64{3, 8} {
		g := gen.LocalWeb(800, 6, 30, 0.01, seed)
		coords := coordMap{}
		for _, u := range g.Nodes() {
			coords[u] = []float32{float32(uint64(u)*2654435761%1000) / 10, float32(uint64(u)*40503%1000) / 10}
		}
		var qs []Query
		for _, types := range [][]Type{nil, MixedTypesKNN} {
			qs = append(qs, Hotspot(g, WorkloadSpec{NumHotspots: 12, QueriesPerHotspot: 6, Types: types, Seed: seed})...)
		}
		kinds := map[Type]int{}
		for _, gq := range qs {
			for _, q := range []Query{gq, stuffed(gq)} {
				p := q.Reads()
				if !reflect.DeepEqual(p.Reads(), p) {
					t.Fatalf("seed %d: projecting %+v twice differs from once", seed, q)
				}
				if got, want := Answer(g, p), Answer(g, q); got != want {
					t.Fatalf("seed %d: %v answers %+v projected, %+v as written (%+v)", seed, q.Type, got, want, q)
				}
				if q.Type == KNearest {
					if got, want := AnswerKNN(g, coords, p), AnswerKNN(g, coords, q); got != want {
						t.Fatalf("seed %d: k-NN answers %+v projected, %+v as written (%+v)", seed, got, want, q)
					}
				}
				if (q.Validate() == nil) != (p.Validate() == nil) {
					t.Fatalf("seed %d: Validate = %v as written, %v projected (%+v)", seed, q.Validate(), p.Validate(), q)
				}
				if unread(p) {
					t.Fatalf("seed %d: %v projection keeps a field its kind does not read: %+v", seed, q.Type, p)
				}
			}
			kinds[gq.Type]++
		}
		if len(kinds) != len(MixedTypesKNN) {
			t.Fatalf("seed %d: the workloads drew %d kinds, want all %d", seed, len(kinds), len(MixedTypesKNN))
		}
	}
}

// unread reports whether p sets a field its kind does not read.
func unread(p Query) bool {
	switch p.Type {
	case NeighborAgg:
		p.CountLabel = ""
	case RandomWalk:
		p.RestartProb, p.Seed = 0, 0
	case Reachability:
		p.Target = 0
	case PatternMatch:
		p.Pattern = nil
	case BoundedReach:
		p.Target, p.Anchors, p.VisitBudget = 0, nil, 0
	case KNearest:
		p.K = 0
	}
	p.ID, p.Type, p.Node, p.Hops, p.Dir, p.Hotspot = 0, 0, 0, 0, 0, 0
	return !reflect.DeepEqual(p, Query{})
}
