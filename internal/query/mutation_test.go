package query

import (
	"errors"
	"testing"
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
