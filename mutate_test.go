package grouting_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	grouting "repro"
	"repro/internal/gstore"
	"repro/internal/rpc"
)

// mutationStream is the transport-agnostic write workload: singleton
// upserts and edge inserts, a batched burst, and a tombstoning removal,
// every write mirrored onto the caller's oracle. It returns the nodes it
// created.
func mutationStream(ctx context.Context, c grouting.Client, oracle *grouting.Graph) ([]grouting.NodeID, error) {
	const newNodes = 20
	base := oracle.NumNodes()
	pageLabel := oracle.InternLabel("page")
	linkLabel := oracle.InternLabel("link")

	var added []grouting.NodeID
	for i := 0; i < newNodes/2; i++ {
		u := oracle.MaxNodeID()
		if err := c.UpsertNode(ctx, u, "page"); err != nil {
			return nil, err
		}
		oracle.UpsertNode(u, pageLabel)
		anchor := grouting.NodeID((i * 31) % base)
		if err := c.AddEdge(ctx, u, anchor, "link"); err != nil {
			return nil, err
		}
		if _, err := oracle.EnsureEdge(u, anchor, linkLabel); err != nil {
			return nil, err
		}
		added = append(added, u)
	}

	var burst []grouting.Mutation
	next := oracle.MaxNodeID()
	for i := newNodes / 2; i < newNodes; i++ {
		burst = append(burst,
			grouting.Mutation{Op: grouting.MutUpsertNode, Node: next, Label: "page"},
			grouting.Mutation{Op: grouting.MutAddEdge, Node: next, To: grouting.NodeID((i*31 + 5) % base), Label: "link"},
		)
		next++
	}
	if n, err := c.Mutate(ctx, burst); err != nil {
		return nil, fmt.Errorf("batch applied %d of %d: %w", n, len(burst), err)
	}
	for _, m := range burst {
		if err := m.Apply(oracle); err != nil {
			return nil, err
		}
		if m.Op == grouting.MutUpsertNode {
			added = append(added, m.Node)
		}
	}

	// Tombstone: add a shortcut, remove it, and prove a second removal is
	// the typed conflict rather than a transport failure.
	if err := c.AddEdge(ctx, added[0], added[1], "link"); err != nil {
		return nil, err
	}
	if err := c.RemoveEdge(ctx, added[0], added[1]); err != nil {
		return nil, err
	}
	if err := c.RemoveEdge(ctx, added[0], added[1]); !errors.Is(err, grouting.ErrConflict) {
		return nil, fmt.Errorf("double removal: err = %v, want ErrConflict", err)
	}
	return added, nil
}

// TestMutateTwoTransports runs the same mutation stream through the
// virtual-time client and a real TCP cluster: on both, every subsequent
// query must agree with the client-side oracle (read-your-writes, no
// resurrection of the removed edge), the two transports must agree with
// each other, and both must return the same typed write errors.
func TestMutateTwoTransports(t *testing.T) {
	const scale, seed = 0.02, 7
	ctx := context.Background()
	local, remote := twoTransports(t, grouting.GenerateDataset(grouting.WebGraph, scale, seed), grouting.Config{
		Processors: 3, StorageServers: 2, Policy: grouting.PolicyLandmark, Landmarks: 8, MinSeparation: 1, Seed: 1,
	})

	clients := []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}}

	var perClient [2][]grouting.Result
	for i, tc := range clients {
		o := grouting.GenerateDataset(grouting.WebGraph, scale, seed)
		added, err := mutationStream(ctx, tc.c, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var results []grouting.Result
		for _, u := range added {
			q := grouting.Query{Type: grouting.NeighborAgg, Node: u, Hops: 2, Dir: grouting.Both}
			res, err := tc.c.Execute(ctx, q)
			if err != nil {
				t.Fatalf("%s: query on new node %d: %v", tc.name, u, err)
			}
			if want := grouting.Answer(o, q); res != want {
				t.Fatalf("%s: node %d: got %+v, want %+v", tc.name, u, res, want)
			}
			results = append(results, res)
		}
		perClient[i] = results
	}
	for i := range perClient[0] {
		if perClient[0][i] != perClient[1][i] {
			t.Fatalf("result %d differs between transports: %+v vs %+v",
				i, perClient[0][i], perClient[1][i])
		}
	}

	// Same typed write errors from both transports.
	for _, tc := range clients {
		if _, err := tc.c.Mutate(ctx, []grouting.Mutation{
			{Op: grouting.MutAddEdge, Node: 3, To: 3, Label: "link"},
		}); !errors.Is(err, grouting.ErrBadQuery) {
			t.Fatalf("%s: self-loop err = %v, want ErrBadQuery", tc.name, err)
		}
		if err := tc.c.AddEdge(ctx, 1<<30, 0, "link"); !errors.Is(err, grouting.ErrConflict) {
			t.Fatalf("%s: edge on missing endpoint err = %v, want ErrConflict", tc.name, err)
		}
	}
}

// TestLabelTableFullTwoTransports: a mutation whose label the full label
// table cannot take is the typed ErrBadQuery on both transports, with
// nothing applied, and the deployment goes on serving queries. The table is
// filled in-process: both deployments intern into the given graph's table.
func TestLabelTableFullTwoTransports(t *testing.T) {
	ctx := context.Background()
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	local, remote := twoTransports(t, g, grouting.Config{Processors: 2, StorageServers: 2, Policy: grouting.PolicyHash})
	for i := g.Labels().Len(); i < 1<<16; i++ {
		g.InternLabel(fmt.Sprintf("fill-%d", i))
	}
	q := grouting.Query{Type: grouting.NeighborAgg, Node: 1, Hops: 1, Dir: grouting.Out}
	want := grouting.Answer(g, q)
	for _, tc := range []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}} {
		n, err := tc.c.Mutate(ctx, []grouting.Mutation{{Op: grouting.MutUpsertNode, Node: 1, Label: "one too many"}})
		if n != 0 || !errors.Is(err, grouting.ErrBadQuery) {
			t.Fatalf("%s: label past a full table: applied %d, err %v; want 0 and ErrBadQuery", tc.name, n, err)
		}
		if res, err := tc.c.Execute(ctx, q); err != nil || res != want {
			t.Fatalf("%s: query after the refused label: %+v, %v; want %+v", tc.name, res, err, want)
		}
	}
}

// TestMutateConcurrentReadYourWrites hammers both transports with
// concurrent writers touching disjoint records, each immediately reading
// back its own write — through the record it created, and through the
// anchor's record, which it read (so a processor cached it) just before the
// write. Run under -race this exercises the concurrent client paths, the
// router's single-writer mutation lock and the invalidations that ride the
// read-back's own frame.
func TestMutateConcurrentReadYourWrites(t *testing.T) {
	const scale, seed = 0.02, 7
	const workers, perWorker = 6, 4
	ctx := context.Background()

	// Precompute the final oracle: every worker's writes applied. Worker
	// neighbourhoods are disjoint, so each read-back answer is independent
	// of how the other workers' writes interleave.
	oracle := grouting.GenerateDataset(grouting.WebGraph, scale, seed)
	base := oracle.NumNodes()
	pageLabel := oracle.InternLabel("page")
	linkLabel := oracle.InternLabel("link")
	first := oracle.MaxNodeID()
	type job struct {
		node       grouting.NodeID
		anchor     grouting.NodeID
		want       grouting.Result
		wantAnchor grouting.Result
	}
	intoAnchor := func(j job) grouting.Query {
		return grouting.Query{Type: grouting.NeighborAgg, Node: j.anchor, Hops: 1, Dir: grouting.In}
	}
	jobs := make([][]job, workers)
	for w := 0; w < workers; w++ {
		for k := 0; k < perWorker; k++ {
			u := first + grouting.NodeID(w*perWorker+k)
			anchor := grouting.NodeID(w*perWorker+k) * 7 // distinct, < base
			if int(anchor) >= base {
				t.Fatalf("anchor %d escapes the base graph", anchor)
			}
			oracle.UpsertNode(u, pageLabel)
			if _, err := oracle.EnsureEdge(u, anchor, linkLabel); err != nil {
				t.Fatal(err)
			}
			jobs[w] = append(jobs[w], job{node: u, anchor: anchor})
		}
	}
	for w := range jobs {
		for k := range jobs[w] {
			q := grouting.Query{Type: grouting.NeighborAgg, Node: jobs[w][k].node, Hops: 1, Dir: grouting.Out}
			jobs[w][k].want = grouting.Answer(oracle, q)
			jobs[w][k].wantAnchor = grouting.Answer(oracle, intoAnchor(jobs[w][k]))
		}
	}

	local, remote := twoTransports(t, grouting.GenerateDataset(grouting.WebGraph, scale, seed),
		grouting.Config{Processors: 3, StorageServers: 2, Policy: grouting.PolicyHash})

	for _, tc := range []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}} {
		t.Run(tc.name, func(t *testing.T) {
			errs := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, j := range jobs[w] {
						if _, err := tc.c.Execute(ctx, intoAnchor(j)); err != nil {
							errs <- fmt.Errorf("worker %d: warming anchor %d: %w", w, j.anchor, err)
							return
						}
						if err := tc.c.UpsertNode(ctx, j.node, "page"); err != nil {
							errs <- fmt.Errorf("worker %d: upsert %d: %w", w, j.node, err)
							return
						}
						if err := tc.c.AddEdge(ctx, j.node, j.anchor, "link"); err != nil {
							errs <- fmt.Errorf("worker %d: edge %d->%d: %w", w, j.node, j.anchor, err)
							return
						}
						q := grouting.Query{Type: grouting.NeighborAgg, Node: j.node, Hops: 1, Dir: grouting.Out}
						res, err := tc.c.Execute(ctx, q)
						if err != nil {
							errs <- fmt.Errorf("worker %d: read-back %d: %w", w, j.node, err)
							return
						}
						if res != j.want {
							errs <- fmt.Errorf("worker %d: node %d read its own write wrong: got %+v, want %+v",
								w, j.node, res, j.want)
							return
						}
						if res, err = tc.c.Execute(ctx, intoAnchor(j)); err != nil || res != j.wantAnchor {
							errs <- fmt.Errorf("worker %d: anchor %d, cached before the write, read back %+v (%v), want %+v",
								w, j.anchor, res, err, j.wantAnchor)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// mirrorMutations applies acked client mutations to oracle, interning their
// labels in stream order as both transports do.
func mirrorMutations(t *testing.T, oracle *grouting.Graph, muts []grouting.Mutation) {
	t.Helper()
	for _, m := range muts {
		if err := m.Apply(oracle); err != nil {
			t.Fatalf("oracle rejects acked %v: %v", m, err)
		}
	}
}

// TestStoredRecordsTwoTransports: both transports edit stored records with
// the one gstore.Mutate, so one mutation stream — parallel "b" / "a" edges
// and their removal among it — leaves every touched record byte-identical
// on both, and equal to the record of the oracle the stream was mirrored
// onto. The removal takes the lowest-labelled edge ("a", interned first)
// everywhere. Two mutations that write nothing after it — a no-op and a
// conflict — change no record on either. The graph handed to NewSystem is
// left exactly as it was.
func TestStoredRecordsTwoTransports(t *testing.T) {
	const scale, seed = 0.02, 7
	dataset := func() *grouting.Graph { return grouting.GenerateDataset(grouting.WebGraph, scale, seed) }
	ctx := context.Background()

	cfg := grouting.Config{
		Processors: 3, StorageServers: 2, Policy: grouting.PolicyLandmark,
		Landmarks: 8, MinSeparation: 1, Seed: 1,
	}
	given := dataset()
	sys, err := grouting.NewSystem(given, cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}
	remote, d := startLoopback(t, dataset(), cfg)
	sc, err := rpc.DialStorageReplicated(d.StorageAddrs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	oracle := dataset()
	n0, n1 := oracle.MaxNodeID(), oracle.MaxNodeID()+1
	v := grouting.NodeID(3)
	for oracle.HasEdge(0, v) {
		v++
	}
	old := oracle.OutEdges(5)[0].To
	stream := []grouting.Mutation{
		{Op: grouting.MutUpsertNode, Node: n0, Label: "a"}, // "a" is interned before "b"
		{Op: grouting.MutUpsertNode, Node: n1, Label: "b"},
		{Op: grouting.MutAddEdge, Node: n0, To: n1, Label: "b"},
		{Op: grouting.MutAddEdge, Node: n0, To: n1, Label: "a"},
		{Op: grouting.MutRemoveEdge, Node: n0, To: n1},
		{Op: grouting.MutAddEdge, Node: 0, To: v, Label: "b"},
		{Op: grouting.MutAddEdge, Node: 0, To: v, Label: "a"},
		{Op: grouting.MutRemoveEdge, Node: 0, To: v},
		{Op: grouting.MutAddEdge, Node: n1, To: 0, Label: "a"},
		{Op: grouting.MutUpsertNode, Node: 0, Label: "b"},
		{Op: grouting.MutRemoveEdge, Node: 5, To: old},
	}
	for _, tc := range []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}} {
		if n, err := tc.c.Mutate(ctx, stream); n != len(stream) || err != nil {
			t.Fatalf("%s: applied %d of %d: %v", tc.name, n, len(stream), err)
		}
	}
	// Then two mutations that write nothing: the re-add of an edge already
	// there, and, in its own call, the removal of one that is not.
	for _, tc := range []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}} {
		if n, err := tc.c.Mutate(ctx, []grouting.Mutation{{Op: grouting.MutAddEdge, Node: n1, To: 0, Label: "a"}}); n != 1 || err != nil {
			t.Fatalf("%s: re-add of a present edge: applied %d, %v", tc.name, n, err)
		}
		if n, err := tc.c.Mutate(ctx, []grouting.Mutation{{Op: grouting.MutRemoveEdge, Node: n0, To: 0}}); n != 0 || !errors.Is(err, grouting.ErrConflict) {
			t.Fatalf("%s: removal of an absent edge: applied %d, %v; want 0 and ErrConflict", tc.name, n, err)
		}
	}
	mirrorMutations(t, oracle, stream)
	if want := []grouting.Edge{{To: n1, Label: oracle.InternLabel("b")}}; !reflect.DeepEqual(oracle.OutEdges(n0), want) {
		t.Fatalf("oracle kept %v of the parallel edges, want %v", oracle.OutEdges(n0), want)
	}

	for _, u := range []grouting.NodeID{n0, n1, 0, v, 5, old} {
		want := gstore.Encode(nil, gstore.RecordOf(oracle, u))
		got, ok := sys.Store().Get(uint64(u))
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("virtual-time record of node %d differs from the oracle's", u)
		}
		got, ok, err := sc.Get(ctx, uint64(u))
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Errorf("tcp record of node %d differs from the oracle's (%v)", u, err)
		}
	}

	pristine := dataset()
	if given.NumEdges() != pristine.NumEdges() || given.MaxNodeID() != pristine.MaxNodeID() {
		t.Fatalf("the graph given to NewSystem has %d edges over %d ids, want %d over %d",
			given.NumEdges(), given.MaxNodeID(), pristine.NumEdges(), pristine.MaxNodeID())
	}
	for u := grouting.NodeID(0); u < pristine.MaxNodeID(); u++ {
		if !reflect.DeepEqual(given.OutEdges(u), pristine.OutEdges(u)) || !reflect.DeepEqual(given.InEdges(u), pristine.InEdges(u)) ||
			given.NodeLabelID(u) != pristine.NodeLabelID(u) {
			t.Fatalf("node %d of the graph given to NewSystem changed", u)
		}
	}
}
