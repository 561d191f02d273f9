package grouting_test

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	grouting "repro"
	"repro/internal/gstore"
)

// bothLists returns a node of g other than 0 (a reachability Target of 0
// means none) with at least two out-edges and two in-edges.
func bothLists(t *testing.T, g *grouting.Graph) grouting.NodeID {
	t.Helper()
	for _, u := range g.Nodes() {
		if u != 0 && len(g.OutEdges(u)) > 1 && len(g.InEdges(u)) > 1 {
			return u
		}
	}
	t.Fatal("no node with two out-edges and two in-edges")
	return 0
}

// TestCorruptRecordRefusedTwoTransports: a query that reads only out-edges
// asks storage for out-prefixes, but a stored value that does not walk
// whole is shipped whole and refused with gstore.ErrCorrupt, on both
// transports, as it was when
// every read shipped whole records: one whose out-list is malformed, and
// one whose out-list is intact but whose in-list is cut short — the bytes
// the query does not read. Neither is cached.
func TestCorruptRecordRefusedTwoTransports(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	u := bothLists(t, g)
	enc := gstore.Encode(nil, gstore.RecordOf(g, u))
	_, head := binary.Uvarint(enc)
	for _, tc := range []struct {
		name string
		val  []byte
	}{
		// An out-list of 127 edges in one byte.
		{"malformed out-list", append(append([]byte(nil), enc[:head]...), 0x7f, 1)},
		// The last in-edge, one delta byte, cut off.
		{"truncated in-list", enc[:len(enc)-1]},
	} {
		cfg := grouting.Config{Processors: 1, StorageServers: 2, Policy: grouting.PolicyHash, Seed: 1}
		local, remote, put := twoTransportsStored(t, g, cfg)
		put(uint64(u), tc.val)
		ctx := context.Background()
		for _, c := range []struct {
			name string
			c    grouting.Client
		}{{"virtual-time", local}, {"tcp", remote}} {
			q := grouting.Query{Type: grouting.NeighborAgg, Node: u, Hops: 1, Dir: grouting.Out}
			if res, err := c.c.Execute(ctx, q); !errors.Is(err, gstore.ErrCorrupt) {
				t.Fatalf("%s, %s: out-only query = %+v, %v; want the corrupt record refused with gstore.ErrCorrupt", tc.name, c.name, res, err)
			}
			st, err := c.c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Cache.Inserts != 0 || st.Cache.CurrentBytes != 0 {
				t.Fatalf("%s, %s: cache %+v after the refusal, want nothing cached", tc.name, c.name, st.Cache)
			}
		}
	}
}

// TestPrefixEntryRefetchedWholeTwoTransports: out-only reads cache two
// records as out-prefixes; a reachability query then expands one of them
// backward, over its in-list, which a prefix does not hold. That step
// counts the prefix a miss, fetches the whole record and caches it in the
// prefix's place, and the answer is the oracle's, on both transports alike.
func TestPrefixEntryRefetchedWholeTwoTransports(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	u := bothLists(t, g)
	// s reaches out to two nodes or more, none of them u, so the second
	// level of a search from s to u expands u backward.
	var s grouting.NodeID
	for _, n := range g.Nodes() {
		if n != u && n != 0 && len(g.OutEdges(n)) > 1 && !g.HasEdge(n, u) {
			s = n
			break
		}
	}
	enc := gstore.Encode(nil, gstore.RecordOf(g, u))
	prefix, err := gstore.OutPrefix(enc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := grouting.Config{Processors: 1, StorageServers: 2, Policy: grouting.PolicyHash, Seed: 1}
	local, remote, _ := twoTransportsStored(t, g, cfg)
	ctx := context.Background()
	reach := grouting.Query{ID: 2, Type: grouting.Reachability, Node: s, Target: u, Hops: 2, Dir: grouting.Out}
	var after [2]grouting.Stats
	for i, c := range []grouting.Client{local, remote} {
		for _, n := range []grouting.NodeID{s, u} {
			if _, err := c.Execute(ctx, grouting.Query{Type: grouting.NeighborAgg, Node: n, Hops: 0, Dir: grouting.Out}); err != nil {
				t.Fatal(err)
			}
		}
		before, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Execute(ctx, reach)
		if want := grouting.Answer(g, reach); err != nil || res != want {
			t.Fatalf("client %d: reachability %d -> %d = %+v, %v; want %+v", i, s, u, res, err, want)
		}
		if after[i], err = c.Stats(ctx); err != nil {
			t.Fatal(err)
		}
		b, a := before.Cache, after[i].Cache
		if a.Hits-b.Hits != 1 || a.Misses-b.Misses != 1 || a.Inserts-b.Inserts != 1 || a.CurrentBytes-b.CurrentBytes != int64(len(enc)-prefix) {
			t.Fatalf("client %d: cache %+v after %+v; want s a hit, u a miss refetched whole in its prefix's place", i, a, b)
		}
	}
	if after[0].Cache != after[1].Cache {
		t.Fatalf("virtual-time cache %+v, tcp %+v; want equal", after[0].Cache, after[1].Cache)
	}
}
