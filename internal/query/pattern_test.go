package query

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// triangle is a valid two-anchor template with labels on a node and an
// edge: both anchors point at one free variable.
func triangle() Pattern {
	return Pattern{
		Nodes: []PatternNode{{Anchor: 4}, {Anchor: 9, Label: "page"}, {Label: "site"}},
		Edges: []PatternEdge{{From: 0, To: 2, Label: "links"}, {From: 1, To: 2}},
	}
}

func TestPatternValidate(t *testing.T) {
	many := func(n int) []PatternNode {
		nodes := make([]PatternNode, n)
		nodes[0].Anchor = 1
		return nodes
	}
	chain := func(n int) []PatternEdge {
		edges := make([]PatternEdge, n)
		for i := range edges {
			edges[i] = PatternEdge{From: 0, To: 1}
		}
		return edges
	}
	for _, c := range []struct {
		name string
		p    Pattern
		ok   bool
	}{
		{"two anchors", triangle(), true},
		{"parallel edges", Pattern{Nodes: many(2), Edges: chain(MaxPatternEdges)}, true},
		{"no nodes", Pattern{Edges: chain(1)}, false},
		{"too many nodes", Pattern{Nodes: many(MaxPatternNodes + 1), Edges: chain(1)}, false},
		{"no edges", Pattern{Nodes: many(2)}, false},
		{"too many edges", Pattern{Nodes: many(2), Edges: chain(MaxPatternEdges + 1)}, false},
		{"no anchor", Pattern{Nodes: make([]PatternNode, 2), Edges: chain(1)}, false},
		{"negative endpoint", Pattern{Nodes: many(2), Edges: []PatternEdge{{From: -1, To: 1}}}, false},
		{"endpoint past the nodes", Pattern{Nodes: many(2), Edges: []PatternEdge{{From: 0, To: 2}}}, false},
		{"self-loop", Pattern{Nodes: many(2), Edges: []PatternEdge{{From: 0, To: 1}, {From: 1, To: 1}}}, false},
		{"disconnected variable", Pattern{Nodes: many(3), Edges: chain(1)}, false},
	} {
		err := c.p.Validate()
		if c.ok != (err == nil) {
			t.Errorf("%s: Validate = %v, want ok %v", c.name, err, c.ok)
		}
		q := Query{Type: PatternMatch, Node: 1, Hops: 2, Pattern: &c.p}
		if qerr := q.Validate(); c.ok != (qerr == nil) || qerr != nil && !errors.Is(qerr, ErrBadQuery) {
			t.Errorf("%s: Query.Validate = %v, want ok %v or ErrBadQuery", c.name, qerr, c.ok)
		}
	}
	if err := (Query{Type: PatternMatch, Node: 1}).Validate(); !errors.Is(err, ErrBadQuery) {
		t.Errorf("pattern query without a pattern: %v, want ErrBadQuery", err)
	}
}

// TestJoinOrder: every edge appears once, and each one has an endpoint an
// anchor or an earlier edge bound — whatever order the template lists its
// edges in. An unanchored component is still ordered, after the rest.
func TestJoinOrder(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Pattern
		want []int
	}{
		{"anchors first", triangle(), []int{0, 1}},
		{"listed far side first", Pattern{
			Nodes: []PatternNode{{}, {Anchor: 3}, {}},
			Edges: []PatternEdge{{From: 0, To: 2}, {From: 1, To: 0}},
		}, []int{1, 0}},
		{"chain listed backwards", Pattern{
			Nodes: []PatternNode{{Anchor: 1}, {}, {}, {}},
			Edges: []PatternEdge{{From: 2, To: 3}, {From: 1, To: 2}, {From: 0, To: 1}},
		}, []int{2, 1, 0}},
		{"unanchored component", Pattern{
			Nodes: []PatternNode{{Anchor: 1}, {}, {}, {}},
			Edges: []PatternEdge{{From: 2, To: 3}, {From: 0, To: 1}},
		}, []int{1, 0}},
	} {
		order := c.p.JoinOrder()
		if !slices.Equal(order, c.want) {
			t.Errorf("%s: JoinOrder = %v, want %v", c.name, order, c.want)
		}
		if c.p.Validate() != nil {
			continue
		}
		bound := make([]bool, len(c.p.Nodes))
		for _, v := range c.p.AnchorVars() {
			bound[v] = true
		}
		for _, i := range order {
			e := c.p.Edges[i]
			if !bound[e.From] && !bound[e.To] {
				t.Errorf("%s: edge %d joins two unbound variables", c.name, i)
			}
			bound[e.From], bound[e.To] = true, true
		}
	}
}

func TestPatternDistancesAndAnchors(t *testing.T) {
	p := Pattern{
		Nodes: []PatternNode{{Anchor: 7}, {}, {Anchor: 7}, {}},
		Edges: []PatternEdge{{From: 0, To: 1}, {From: 2, To: 1}},
	}
	if d := p.Distances(0); !slices.Equal(d, []int{0, 1, 2, -1}) {
		t.Errorf("Distances(0) = %v, want [0 1 2 -1]", d)
	}
	if v := p.AnchorVars(); !slices.Equal(v, []int{0, 2}) {
		t.Errorf("AnchorVars = %v, want [0 2]", v)
	}
	if a := p.AnchorNodes(); !slices.Equal(a, []graph.NodeID{7, 7}) {
		t.Errorf("AnchorNodes = %v, want the duplicate kept: [7 7]", a)
	}
}

func TestQueryAnchorNodes(t *testing.T) {
	tri := triangle()
	for _, c := range []struct {
		q    Query
		want []graph.NodeID
	}{
		{Query{Type: NeighborAgg, Node: 5}, []graph.NodeID{5}},
		{Query{Type: KNearest, Node: 6}, []graph.NodeID{6}},
		{Query{Type: PatternMatch, Node: 4, Pattern: &tri}, []graph.NodeID{4, 9}},
		{Query{Type: PatternMatch, Node: 4}, nil},
		{Query{Type: BoundedReach, Node: 2, Anchors: []graph.NodeID{2, 8}}, []graph.NodeID{2, 8}},
	} {
		if got := c.q.AnchorNodes(); !slices.Equal(got, c.want) {
			t.Errorf("%v: AnchorNodes = %v, want %v", c.q.Type, got, c.want)
		}
	}
}

func TestTypeMultiAnchor(t *testing.T) {
	for typ, want := range map[Type]bool{
		NeighborAgg: false, RandomWalk: false, Reachability: false,
		PatternMatch: true, BoundedReach: true, KNearest: true,
	} {
		if typ.MultiAnchor() != want {
			t.Errorf("%v.MultiAnchor() = %v, want %v", typ, !want, want)
		}
	}
}

// TestPatternBinaryRoundTrip: a pattern survives its wire form, after any
// prefix the caller's buffer already holds.
func TestPatternBinaryRoundTrip(t *testing.T) {
	for _, p := range []Pattern{
		triangle(),
		{Nodes: []PatternNode{{Anchor: 1<<32 - 1, Label: "max"}, {}}, Edges: []PatternEdge{{From: 1, To: 0, Label: "back"}}},
	} {
		prefix := []byte{0xde, 0xad}
		buf := p.AppendBinary(slices.Clone(prefix))
		if !slices.Equal(buf[:len(prefix)], prefix) {
			t.Fatalf("AppendBinary overwrote the buffer's prefix: % x", buf[:len(prefix)])
		}
		var got Pattern
		if err := got.UnmarshalBinary(buf[len(prefix):]); err != nil {
			t.Fatalf("decode %+v: %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip = %+v, want %+v", got, p)
		}
	}
}

// TestPatternUnmarshalRefusesMalformed: every truncation of a valid
// encoding, an encoding with bytes after it, counts and strings past their
// bounds and an anchor past 32 bits are refused with an error — never a
// panic — and leave the destination as it was. Random bytes never panic.
func TestPatternUnmarshalRefusesMalformed(t *testing.T) {
	full := triangle().AppendBinary(nil)
	bad := map[string][]byte{
		"trailing byte":       append(slices.Clone(full), 0),
		"too many nodes":      {MaxPatternNodes + 1},
		"count past input":    {3, 0, 1},
		"label over the cap":  {1, 0x81, 0x10}, // a 2,049-byte label
		"anchor past 32 bits": {1, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0},
		"too many edges":      {1, 0, 1, MaxPatternEdges + 1},
		"unterminated count":  {0x80},
	}
	for n := range full {
		bad[fmt.Sprintf("truncated to %d of %d bytes", n, len(full))] = full[:n]
	}
	keep := triangle()
	for name, data := range bad {
		p := keep
		if err := p.UnmarshalBinary(data); err == nil {
			t.Errorf("%s (% x): decoded %+v, want an error", name, data, p)
		}
		if !reflect.DeepEqual(p, keep) {
			t.Errorf("%s: a refused decode changed the pattern to %+v", name, p)
		}
	}
	rng := xrand.New(11)
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(24))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		var p Pattern
		if p.UnmarshalBinary(data) == nil && len(p.Nodes) > MaxPatternNodes {
			t.Fatalf("% x decoded %d nodes, over the bound", data, len(p.Nodes))
		}
	}
}

// TestPatternMatchOracle: homomorphism counting over a small labelled graph.
// A binding counts once however many parallel edges support it, a label the
// graph never interned matches nothing, and an anchor that is absent or
// fails its variable's label makes the count zero.
func TestPatternMatchOracle(t *testing.T) {
	g := graph.New()
	for _, lab := range []string{"x", "page", "page", "site", "site", "page"} {
		g.AddNode(lab)
	}
	for _, e := range []struct {
		u, v graph.NodeID
		lab  string
	}{{1, 3, "links"}, {2, 3, ""}, {1, 4, "links"}, {2, 4, ""}, {1, 4, "other"}, {5, 3, "links"}} {
		if err := g.AddEdge(e.u, e.v, e.lab); err != nil {
			t.Fatal(err)
		}
	}
	two := func(a, b PatternNode, e PatternEdge) *Pattern {
		return &Pattern{Nodes: []PatternNode{a, b}, Edges: []PatternEdge{e}}
	}
	for _, c := range []struct {
		name string
		p    *Pattern
		want int
	}{
		{"two anchors, one site", &Pattern{
			Nodes: []PatternNode{{Anchor: 1}, {Anchor: 2}, {Label: "site"}},
			Edges: []PatternEdge{{From: 0, To: 2, Label: "links"}, {From: 1, To: 2}},
		}, 2},
		{"out-edges, parallel edges count once", two(PatternNode{Anchor: 1}, PatternNode{}, PatternEdge{From: 0, To: 1}), 2},
		{"in-edges, parallel edges count once", two(PatternNode{Anchor: 4}, PatternNode{}, PatternEdge{From: 1, To: 0}), 2},
		{"in-edges under a label", two(PatternNode{Anchor: 3}, PatternNode{Label: "page"}, PatternEdge{From: 1, To: 0, Label: "links"}), 2},
		{"both ends bound", two(PatternNode{Anchor: 1}, PatternNode{Anchor: 3}, PatternEdge{From: 0, To: 1, Label: "links"}), 1},
		{"both ends bound, wrong label", two(PatternNode{Anchor: 1}, PatternNode{Anchor: 3}, PatternEdge{From: 0, To: 1, Label: "other"}), 0},
		{"edge label never interned", two(PatternNode{Anchor: 1}, PatternNode{}, PatternEdge{From: 0, To: 1, Label: "cites"}), 0},
		{"node label never interned", two(PatternNode{Anchor: 1}, PatternNode{Label: "blog"}, PatternEdge{From: 0, To: 1}), 0},
		{"absent anchor", two(PatternNode{Anchor: 99}, PatternNode{}, PatternEdge{From: 0, To: 1}), 0},
		{"anchor fails its label", two(PatternNode{Anchor: 1, Label: "site"}, PatternNode{}, PatternEdge{From: 0, To: 1}), 0},
	} {
		q := Query{Type: PatternMatch, Node: c.p.Nodes[0].Anchor, Pattern: c.p}
		if got := Answer(g, q); got != (Result{Type: PatternMatch, Matches: c.want}) {
			t.Errorf("%s: %+v, want %d matches", c.name, got, c.want)
		}
	}
	if got := Answer(g, Query{Type: PatternMatch, Node: 1}); got != (Result{Type: PatternMatch}) {
		t.Errorf("no pattern: %+v, want an empty answer", got)
	}
}
