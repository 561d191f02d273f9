package query

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestMutationValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		m    Mutation
		bad  bool
	}{
		{"zero op", Mutation{Op: MutOp(0)}, true},
		{"unknown op", Mutation{Op: MutOp(99)}, true},
		{"upsert with a destination", Mutation{Op: MutUpsertNode, Node: 1, To: 2}, true},
		{"add self-loop", Mutation{Op: MutAddEdge, Node: 3, To: 3}, true},
		{"remove self-loop", Mutation{Op: MutRemoveEdge, Node: 4, To: 4}, true},
		{"upsert", Mutation{Op: MutUpsertNode, Node: 1, Label: "x"}, false},
		{"add", Mutation{Op: MutAddEdge, Node: 1, To: 2}, false},
		{"remove", Mutation{Op: MutRemoveEdge, Node: 2, To: 1}, false},
	} {
		err := c.m.Validate()
		if c.bad && !errors.Is(err, ErrBadQuery) || !c.bad && err != nil {
			t.Errorf("%s (%+v): err = %v, want bad %v", c.name, c.m, err, c.bad)
		}
	}
}

func TestMutOpString(t *testing.T) {
	want := map[MutOp]string{
		MutUpsertNode: "upsert-node", MutAddEdge: "add-edge",
		MutRemoveEdge: "remove-edge", MutOp(9): "MutOp(9)",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("MutOp(%d).String() = %q, want %q", uint8(op), op.String(), s)
		}
	}
}

// adjacencyOf renders every live node's label and both adjacency lists, so
// a test can tell whether a mutation touched the graph.
func adjacencyOf(g *graph.Graph) string {
	var b strings.Builder
	for _, u := range g.Nodes() {
		fmt.Fprintf(&b, "%d:%q out%v in%v\n", u, g.NodeLabel(u), g.OutEdges(u), g.InEdges(u))
	}
	return b.String()
}

// TestMutationApply: the oracle form makes each op's edit, applying the same
// mutation a second time is a no-op for the idempotent ops and a conflict
// for a removal, and every refused mutation leaves the adjacency as it was.
func TestMutationApply(t *testing.T) {
	newGraph := func() *graph.Graph {
		g := graph.New()
		g.AddNodes(3)
		if err := g.AddEdge(0, 1, "a"); err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, c := range []struct {
		name          string
		m             Mutation
		first, second error // what the first and the second Apply return
		nodes, edges  int   // the graph's counts after both
		check         func(g *graph.Graph) bool
	}{
		{"upsert a new node", Mutation{Op: MutUpsertNode, Node: 5, Label: "x"}, nil, nil, 4, 1,
			func(g *graph.Graph) bool { return g.Exists(5) && g.NodeLabel(5) == "x" }},
		{"relabel a node", Mutation{Op: MutUpsertNode, Node: 1, Label: "y"}, nil, nil, 3, 1,
			func(g *graph.Graph) bool { return g.NodeLabel(1) == "y" }},
		{"add an edge", Mutation{Op: MutAddEdge, Node: 1, To: 2, Label: "b"}, nil, nil, 3, 2,
			func(g *graph.Graph) bool { return len(g.OutEdges(1)) == 1 && len(g.InEdges(2)) == 1 }},
		{"add a parallel edge under another label", Mutation{Op: MutAddEdge, Node: 0, To: 1, Label: "c"}, nil, nil, 3, 2,
			func(g *graph.Graph) bool { return len(g.OutEdges(0)) == 2 }},
		{"remove an edge", Mutation{Op: MutRemoveEdge, Node: 0, To: 1}, nil, ErrConflict, 3, 0,
			func(g *graph.Graph) bool { return len(g.OutEdges(0)) == 0 && len(g.InEdges(1)) == 0 }},
		{"add to an absent destination", Mutation{Op: MutAddEdge, Node: 1, To: 9}, ErrConflict, ErrConflict, 3, 1, nil},
		{"add from an absent source", Mutation{Op: MutAddEdge, Node: 9, To: 1}, ErrConflict, ErrConflict, 3, 1, nil},
		{"remove an absent edge", Mutation{Op: MutRemoveEdge, Node: 1, To: 0}, ErrConflict, ErrConflict, 3, 1, nil},
		{"remove from an absent node", Mutation{Op: MutRemoveEdge, Node: 9, To: 0}, ErrConflict, ErrConflict, 3, 1, nil},
		{"malformed", Mutation{Op: MutAddEdge, Node: 2, To: 2}, ErrBadQuery, ErrBadQuery, 3, 1, nil},
	} {
		g := newGraph()
		before := adjacencyOf(g)
		err := c.m.Apply(g)
		if !errors.Is(err, c.first) {
			t.Errorf("%s: first Apply = %v, want %v", c.name, err, c.first)
		}
		if err != nil && adjacencyOf(g) != before {
			t.Errorf("%s: a refused mutation changed the graph:\n%s\nwant\n%s", c.name, adjacencyOf(g), before)
		}
		before = adjacencyOf(g)
		err = c.m.Apply(g)
		if !errors.Is(err, c.second) {
			t.Errorf("%s: second Apply = %v, want %v", c.name, err, c.second)
		}
		if after := adjacencyOf(g); after != before {
			t.Errorf("%s: applying again changed the graph:\n%s\nwant\n%s", c.name, after, before)
		}
		if g.NumNodes() != c.nodes || g.NumEdges() != c.edges {
			t.Errorf("%s: %d nodes, %d edges; want %d, %d", c.name, g.NumNodes(), g.NumEdges(), c.nodes, c.edges)
		}
		if c.check != nil && !c.check(g) {
			t.Errorf("%s: edit not made:\n%s", c.name, adjacencyOf(g))
		}
	}
}
