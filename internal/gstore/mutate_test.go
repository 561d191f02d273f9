package gstore

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
)

// fakeEnv is a Mutate Env over a map of stored bytes: Commit stores each
// write's Val under its Node and records the call.
type fakeEnv struct {
	labels    *graph.Labels
	labelErr  error
	stored    map[graph.NodeID][]byte
	readErr   error
	commitErr error
	reads     int
	commits   []fakeCommit
}

type fakeCommit struct {
	writes  []Write
	touched []graph.NodeID
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{labels: graph.New().Labels(), stored: make(map[graph.NodeID][]byte)}
}

func (e *fakeEnv) Labels() (*graph.Labels, error) { return e.labels, e.labelErr }

func (e *fakeEnv) Read(ids []graph.NodeID, dst [][]byte) error {
	e.reads++
	if e.readErr != nil {
		return e.readErr
	}
	for i, id := range ids {
		dst[i] = e.stored[id]
	}
	return nil
}

func (e *fakeEnv) Commit(ws []Write, touched []graph.NodeID) error {
	e.commits = append(e.commits, fakeCommit{slices.Clone(ws), slices.Clone(touched)})
	if e.commitErr != nil {
		return e.commitErr
	}
	for _, w := range ws {
		e.stored[w.Node] = w.Val
	}
	return nil
}

// snapshot copies the stored map, so a test can tell it was left alone.
func (e *fakeEnv) snapshot() map[graph.NodeID][]byte {
	out := make(map[graph.NodeID][]byte, len(e.stored))
	for k, v := range e.stored {
		out[k] = bytes.Clone(v)
	}
	return out
}

// TestMutateTable runs every op over each combination of stored endpoints
// and a present or absent edge. The writes are the records Apply reports
// changed, each Val decodes to the record Apply edited, each Edits stream
// turns the stored Pre into Val, and Commit is called once, with the
// touched ids — with no writes on a no-op and on a conflict.
func TestMutateTable(t *testing.T) {
	const u, v = graph.NodeID(1), graph.NodeID(2)
	ops := []struct {
		name string
		op   query.MutOp
	}{{"upsert", query.MutUpsertNode}, {"add", query.MutAddEdge}, {"remove", query.MutRemoveEdge}}
	for _, o := range ops {
		for _, uFound := range []bool{true, false} {
			for _, vFound := range []bool{true, false} {
				for _, edge := range []bool{true, false} {
					name := fmt.Sprintf("%s/u=%v/v=%v/edge=%v", o.name, uFound, vFound, edge)
					t.Run(name, func(t *testing.T) {
						env := newFakeEnv()
						lab := env.labels.Intern("x")
						ur := Record{Node: u, NodeLabel: 3, Out: []graph.Edge{{To: 5, Label: 1}}, In: []graph.Edge{{To: 6}}}
						vr := Record{Node: v, In: []graph.Edge{{To: 7, Label: 2}}}
						if edge {
							ur.Out = append(ur.Out, graph.Edge{To: v, Label: lab})
							vr.In = append(vr.In, graph.Edge{To: u, Label: lab})
						}
						if uFound {
							env.stored[u] = Encode(nil, &ur)
						}
						if vFound {
							env.stored[v] = Encode(nil, &vr)
						}
						m := query.Mutation{Op: o.op, Node: u, To: v, Label: "x"}
						touched := []graph.NodeID{u, v}
						if o.op == query.MutUpsertNode {
							m.To, touched = 0, touched[:1]
						}
						before := env.snapshot()

						// What Apply makes of the same pre-images.
						want := [2]Record{{Node: u}, {Node: v}}
						for i, id := range touched {
							if val := before[id]; val != nil {
								want[i], _ = Decode(id, val)
							}
						}
						wu, wv, applyErr := Apply(o.op, lab, &want[0], &want[1], uFound, vFound)

						ws, err := Mutate(env, &m)

						// The outcome, stated independently of Apply.
						conflict := o.op != query.MutUpsertNode && (!uFound || !vFound || (o.op == query.MutRemoveEdge && !edge))
						noop := o.op == query.MutAddEdge && uFound && vFound && edge
						switch {
						case conflict:
							if !errors.Is(err, query.ErrConflict) || !errors.Is(applyErr, query.ErrConflict) || ws != nil {
								t.Fatalf("Mutate = %d writes, %v; want the conflict", len(ws), err)
							}
						case err != nil || applyErr != nil:
							t.Fatalf("Mutate: %v (Apply: %v)", err, applyErr)
						case noop && len(ws) != 0:
							t.Fatalf("no-op wrote %d records", len(ws))
						case !noop && o.op != query.MutUpsertNode && len(ws) != 2:
							t.Fatalf("edge mutation wrote %d records, want both endpoints", len(ws))
						case o.op == query.MutUpsertNode && len(ws) != 1:
							t.Fatalf("upsert wrote %d records, want 1", len(ws))
						}
						if len(env.commits) != 1 || !slices.Equal(env.commits[0].touched, touched) {
							t.Fatalf("commits = %+v, want one touching %v", env.commits, touched)
						}
						if c := env.commits[0]; !reflect.DeepEqual(c.writes, ws) && (len(c.writes) != 0 || len(ws) != 0) {
							t.Fatalf("Commit got %+v, Mutate returned %+v", c.writes, ws)
						}
						if conflict {
							if len(env.commits[0].writes) != 0 || !reflect.DeepEqual(env.stored, before) {
								t.Fatal("a conflict committed writes")
							}
							return
						}

						var wrote []graph.NodeID
						for i, w := range []bool{wu, wv} {
							if w {
								wrote = append(wrote, want[i].Node)
							}
						}
						for i, w := range ws {
							if i >= len(wrote) || w.Node != wrote[i] {
								t.Fatalf("wrote %v, Apply reports %v", ws, wrote)
							}
							edited := want[slices.Index(touched, w.Node)]
							if !bytes.Equal(w.Val, Encode(nil, &edited)) || !bytes.Equal(env.stored[w.Node], w.Val) {
								t.Fatalf("node %d: Val is not the record Apply edited, or not stored under it", w.Node)
							}
							if !bytes.Equal(w.Pre, before[w.Node]) {
								t.Fatalf("node %d: Pre %x, stored %x", w.Node, w.Pre, before[w.Node])
							}
							pre := Record{Node: w.Node}
							if w.Pre != nil {
								pre, _ = Decode(w.Node, w.Pre)
							}
							got, err := ApplyEdits(pre, w.Edits)
							if err != nil || !bytes.Equal(Encode(nil, &got), w.Val) {
								t.Fatalf("node %d: Edits do not turn Pre into Val (%v)", w.Node, err)
							}
						}
						if len(ws) != len(wrote) {
							t.Fatalf("wrote %d records, Apply reports %v", len(ws), wrote)
						}
					})
				}
			}
		}
	}
}

// TestMutateFailuresWriteNothing: a malformed mutation, a label the engine
// refuses or the full table cannot take, a failed read, a stored-but-empty
// pre-image and a failed commit each return their error, and only the last
// reaches Commit; none leaves a record written.
func TestMutateFailuresWriteNothing(t *testing.T) {
	const u, v = graph.NodeID(1), graph.NodeID(2)
	errRead := errors.New("read failed")
	errLabels := fmt.Errorf("%w: no label table", query.ErrBadQuery)
	errCommit := errors.New("commit failed")
	full := graph.New().Labels()
	for i := full.Len(); i <= int(^graph.Label(0)); i++ {
		full.Intern(strconv.Itoa(i))
	}
	cases := []struct {
		name    string
		m       query.Mutation
		setup   func(*fakeEnv)
		want    error
		commits int
	}{
		{"self-loop", query.Mutation{Op: query.MutAddEdge, Node: u, To: u}, nil, query.ErrBadQuery, 0},
		{"label refused", query.Mutation{Op: query.MutUpsertNode, Node: u, Label: "x"},
			func(e *fakeEnv) { e.labelErr = errLabels }, errLabels, 0},
		{"label table full", query.Mutation{Op: query.MutUpsertNode, Node: u, Label: "new"},
			func(e *fakeEnv) { e.labels = full }, query.ErrBadQuery, 0},
		{"read fails", query.Mutation{Op: query.MutAddEdge, Node: u, To: v},
			func(e *fakeEnv) { e.readErr = errRead }, errRead, 0},
		{"empty pre-image", query.Mutation{Op: query.MutAddEdge, Node: u, To: v},
			func(e *fakeEnv) { e.stored[v] = []byte{} }, ErrCorrupt, 0},
		{"commit fails", query.Mutation{Op: query.MutAddEdge, Node: u, To: v},
			func(e *fakeEnv) { e.commitErr = errCommit }, errCommit, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv()
			env.stored[u] = Encode(nil, &Record{Node: u})
			env.stored[v] = Encode(nil, &Record{Node: v})
			if tc.setup != nil {
				tc.setup(env)
			}
			before := env.snapshot()
			ws, err := Mutate(env, &tc.m)
			if !errors.Is(err, tc.want) || ws != nil {
				t.Fatalf("Mutate = %v, %v; want no writes and %v", ws, err, tc.want)
			}
			if len(env.commits) != tc.commits || !reflect.DeepEqual(env.stored, before) {
				t.Fatalf("%d commits, stored changed: %v; want %d commits and nothing written", len(env.commits), !reflect.DeepEqual(env.stored, before), tc.commits)
			}
		})
	}
}

// TestMutateUnlabelledSkipsLabels: an unlabelled mutation never asks for
// the label table, so an engine without one still takes it.
func TestMutateUnlabelledSkipsLabels(t *testing.T) {
	env := newFakeEnv()
	env.labelErr = errors.New("no label table")
	ws, err := Mutate(env, &query.Mutation{Op: query.MutUpsertNode, Node: 9})
	if err != nil || len(ws) != 1 || ws[0].Pre != nil {
		t.Fatalf("Mutate = %+v, %v; want one write creating node 9", ws, err)
	}
	if got, err := Decode(9, env.stored[9]); err != nil || !reflect.DeepEqual(got, Record{Node: 9, Out: []graph.Edge{}, In: []graph.Edge{}}) {
		t.Fatalf("stored %+v, %v", got, err)
	}
}
