// Updates example (Section 3.4, "Dealing with Graph Updates"): stream node
// and edge mutations into a live system through the public Client write
// path — the same code, two transports. One function written against the
// transport-agnostic grouting.Client streams upserts, edge inserts, a
// batched burst and a tombstoning removal, first into the in-process
// virtual-time system and then into a complete TCP deployment. Every
// write is mirrored onto a client-side oracle graph, and queries on the
// new nodes must agree with it exactly on both transports. On the
// virtual-time system the incremental routing paths (landmark distances,
// embedding coordinates) absorb the new nodes with no offline
// re-preprocessing.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	grouting "repro"
)

const (
	newNodes = 50
	dataset  = grouting.WebGraph
	scale    = 0.03
	seed     = 42
)

// streamUpdates is written once against grouting.Client and never knows
// which transport it drives. Every mutation it sends is mirrored onto the
// caller's oracle graph; afterwards a 2-hop query on each new node must
// match the oracle answer — read-your-writes, on whichever tier is behind
// the interface.
func streamUpdates(ctx context.Context, c grouting.Client, oracle *grouting.Graph) error {
	base := oracle.NumNodes()
	pageLabel := oracle.InternLabel("newpage")
	linkLabel := oracle.InternLabel("links")

	// Stream in new pages one write at a time, each linking to two
	// existing ones — the paper's node-addition path.
	var added []grouting.NodeID
	for i := 0; i < newNodes/2; i++ {
		u := oracle.MaxNodeID()
		if err := c.UpsertNode(ctx, u, "newpage"); err != nil {
			return fmt.Errorf("upsert %d: %w", u, err)
		}
		oracle.UpsertNode(u, pageLabel)
		anchor := grouting.NodeID((i * 37) % base)
		if err := c.AddEdge(ctx, u, anchor, "links"); err != nil {
			return fmt.Errorf("edge %d->%d: %w", u, anchor, err)
		}
		if _, err := oracle.EnsureEdge(u, anchor, linkLabel); err != nil {
			return err
		}
		back := grouting.NodeID((i*53 + 7) % base)
		if err := c.AddEdge(ctx, back, u, "links"); err != nil {
			return fmt.Errorf("edge %d->%d: %w", back, u, err)
		}
		if _, err := oracle.EnsureEdge(back, u, linkLabel); err != nil {
			return err
		}
		added = append(added, u)
	}

	// The other half arrives as one batched Mutate call — a crawler
	// flushing a burst of discoveries in a single round trip.
	var burst []grouting.Mutation
	next := oracle.MaxNodeID()
	for i := newNodes / 2; i < newNodes; i++ {
		u := next
		next++
		anchor := grouting.NodeID((i * 37) % base)
		burst = append(burst,
			grouting.Mutation{Op: grouting.MutUpsertNode, Node: u, Label: "newpage"},
			grouting.Mutation{Op: grouting.MutAddEdge, Node: u, To: anchor, Label: "links"},
		)
	}
	if n, err := c.Mutate(ctx, burst); err != nil {
		return fmt.Errorf("batch applied %d of %d: %w", n, len(burst), err)
	}
	for _, m := range burst {
		if err := m.Apply(oracle); err != nil {
			return err
		}
		if m.Op == grouting.MutUpsertNode {
			added = append(added, m.Node)
		}
	}

	// A shortcut edge between two new nodes, then its removal: the write
	// path's tombstone. Removing it twice is the typed conflict — state
	// the graph rejects, not a transport failure.
	if err := c.AddEdge(ctx, added[0], added[1], "links"); err != nil {
		return err
	}
	if err := c.RemoveEdge(ctx, added[0], added[1]); err != nil {
		return err
	}
	if err := c.RemoveEdge(ctx, added[0], added[1]); !errors.Is(err, grouting.ErrConflict) {
		return fmt.Errorf("second removal: want ErrConflict, got %v", err)
	}

	// Read back every new node: 2-hop neighbourhoods must agree with the
	// client-side oracle — the writes are visible, exact, and the removed
	// edge stays removed.
	for _, u := range added {
		q := grouting.Query{Type: grouting.NeighborAgg, Node: u, Hops: 2, Dir: grouting.Both}
		res, err := c.Execute(ctx, q)
		if err != nil {
			return fmt.Errorf("query on new node %d: %w", u, err)
		}
		if res != grouting.Answer(oracle, q) {
			return fmt.Errorf("node %d disagrees with oracle after updates", u)
		}
	}
	return nil
}

func main() {
	ctx := context.Background()
	oracle := grouting.GenerateDataset(dataset, scale, seed)
	fmt.Printf("initial graph: %d nodes, %d edges\n", oracle.NumNodes(), oracle.NumEdges())

	// Transport 1: the in-process virtual-time engine, built from the oracle
	// itself: a system never mutates the graph it is given (writes edit the
	// stored records), so the oracle stays ours to mirror the writes onto.
	sys, err := grouting.NewSystem(oracle, grouting.Config{
		Processors:     4,
		StorageServers: 2,
		Policy:         grouting.PolicyEmbed,
		Landmarks:      16,
		MinSeparation:  2,
		Dimensions:     6,
		Seed:           1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preprocessing: %d landmarks, %d coordinate bytes\n",
		sys.Prep().Landmarks, sys.Prep().EmbedBytes)
	local, err := grouting.NewLocalClient(sys)
	if err != nil {
		log.Fatal(err)
	}
	if err := streamUpdates(ctx, local, oracle); err != nil {
		log.Fatal(err)
	}
	// The incremental update path gave every streamed node coordinates.
	for u := grouting.NodeID(0); u < oracle.MaxNodeID(); u++ {
		if sys.Embedding().Coords(u) == nil {
			log.Fatalf("node %d missing embedding coordinates", u)
		}
	}
	fmt.Printf("virtual-time transport: %d writes + read-back verified; embedding covers all %d nodes\n",
		newNodes, oracle.NumNodes())

	// Transport 2: a real TCP deployment on localhost — storage shards,
	// processors, a router. Seeding Storage gives the router the write
	// path's placement domain.
	oracle2 := grouting.GenerateDataset(dataset, scale, seed)
	var storageAddrs []string
	for i := 0; i < 2; i++ {
		ss, err := grouting.ServeStorage("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ss.Close()
		storageAddrs = append(storageAddrs, ss.Addr())
	}
	if err := grouting.LoadStorageReplicated(ctx, oracle2, storageAddrs, 1); err != nil {
		log.Fatal(err)
	}
	var procAddrs []string
	for i := 0; i < 3; i++ {
		ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{Storage: storageAddrs, CacheBytes: 64 << 20})
		if err != nil {
			log.Fatal(err)
		}
		defer ps.Close()
		procAddrs = append(procAddrs, ps.Addr())
	}
	rs, err := grouting.ServeRouter("127.0.0.1:0", grouting.RouterSpec{
		Processors: procAddrs,
		Policy:     grouting.PolicyLandmark,
		Graph:      oracle2,
		Seed:       7,
		Storage:    storageAddrs,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	remote, err := grouting.Dial(ctx, rs.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()

	// The exact same function, now writing over TCP: each mutation is a
	// replicated write-all through the router, acked only once every
	// shard replica took it and every processor cache dropped it.
	start := time.Now()
	if err := streamUpdates(ctx, remote, oracle2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tcp transport: %d writes + read-back verified in %v\n",
		newNodes, time.Since(start).Round(time.Millisecond))
	fmt.Println("same client code streamed mutations through both transports, exactly")
}
