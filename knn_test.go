package grouting_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	grouting "repro"
)

// testCoords is the deterministic coordinate function behind the shared
// test provider: a pure function of the node id, with every 17th node
// left uncovered (nil row) so the drop-uncovered ranking rule is live.
func testCoords(u grouting.NodeID) []float32 {
	if u%17 == 0 {
		return nil
	}
	return []float32{float32(u % 5), float32(u%11) / 2, float32(u % 3)}
}

// funcEmbedder is a test provider that computes three-dimensional rows
// with rows, or fails every call with ErrEmbedUnavailable when rows is nil,
// like an external embedding service that cannot be reached.
type funcEmbedder struct {
	name string
	rows func(grouting.NodeID) []float32
}

func (p funcEmbedder) Name() string    { return p.name }
func (p funcEmbedder) Dimensions() int { return 3 }

func (p funcEmbedder) Embed(_ context.Context, nodes []grouting.NodeID) ([][]float32, error) {
	if p.rows == nil {
		return nil, fmt.Errorf("embedding backend unreachable: %w", grouting.ErrEmbedUnavailable)
	}
	rows := make([][]float32, len(nodes))
	for i, u := range nodes {
		rows[i] = p.rows(u)
	}
	return rows, nil
}

// sharedEmbedding materialises the test coordinates over g once — the
// table both transports rank with and the oracle checks against.
func sharedEmbedding(t testing.TB, g *grouting.Graph) *grouting.Embedding {
	t.Helper()
	emb, err := grouting.MaterializeEmbedding(context.Background(), funcEmbedder{"test-coords", testCoords}, g)
	if err != nil {
		t.Fatal(err)
	}
	return emb
}

// startKNNCluster is startTCPCluster with an embedding provider plugged
// into the router, the way groutingd -embed-file does.
func startKNNCluster(t testing.TB, g *grouting.Graph, policy grouting.Policy, provider grouting.Embedder) grouting.Client {
	t.Helper()
	ctx := context.Background()
	var storageAddrs []string
	for i := 0; i < 2; i++ {
		ss, err := grouting.ServeStorage("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ss.Close() })
		storageAddrs = append(storageAddrs, ss.Addr())
	}
	if err := grouting.LoadStorageReplicated(ctx, g, storageAddrs, 1); err != nil {
		t.Fatal(err)
	}
	var procAddrs []string
	for i := 0; i < 2; i++ {
		ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{Storage: storageAddrs, CacheBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Close() })
		procAddrs = append(procAddrs, ps.Addr())
	}
	rs, err := grouting.ServeRouter("127.0.0.1:0", grouting.RouterSpec{
		Processors:    procAddrs,
		Policy:        policy,
		Graph:         g,
		Seed:          7,
		EmbedProvider: provider,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	cl, err := grouting.Dial(ctx, rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestClientTwoTransportsKNN is the k-nearest acceptance test: a pinned
// KNearest workload runs unmodified against the virtual-time system and a
// real loopback TCP cluster under EVERY registered routing policy, with
// one shared embedding reaching the local system through
// WithEmbedProvider and the router through a WriteEmbeddingFile →
// RouterSpec.EmbedProvider artifact round trip. Every answer must match
// the exact oracle (AnswerKNN) and the two transports each other.
func TestClientTwoTransportsKNN(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	emb := sharedEmbedding(t, g)

	// The TCP side loads the embedding the production way: from a
	// precomputed artifact on disk.
	path := filepath.Join(t.TempDir(), "emb.gemb")
	if err := grouting.WriteEmbeddingFile(path, emb); err != nil {
		t.Fatal(err)
	}
	fileProv, err := grouting.OpenEmbeddingFile(path)
	if err != nil {
		t.Fatal(err)
	}

	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 6, QueriesPerHotspot: 4, R: 2, H: 2,
		Types: []grouting.QueryType{grouting.KNearest}, K: 5, Seed: 3,
	})
	knn := 0
	for _, q := range qs {
		if q.Type == grouting.KNearest {
			knn++
		}
	}
	if knn == 0 {
		t.Fatal("workload has no KNearest queries")
	}
	ctx := context.Background()

	for _, info := range grouting.StrategyRegistry() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			sys, err := grouting.New(g,
				grouting.WithProcessors(2),
				grouting.WithStorageServers(2),
				grouting.WithPolicy(info.Policy),
				grouting.WithSeed(1),
				grouting.WithEmbedProvider(grouting.NewFileProvider(emb)),
			)
			if err != nil {
				t.Fatal(err)
			}
			local, err := grouting.NewLocalClient(sys)
			if err != nil {
				t.Fatal(err)
			}
			remote := startKNNCluster(t, g, info.Policy, fileProv)

			var perClient [2][]grouting.Result
			for i, tc := range []struct {
				name string
				c    grouting.Client
			}{{"virtual-time", local}, {"tcp", remote}} {
				results, err := runWorkload(ctx, tc.c, qs)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				for _, q := range qs {
					if q.Type != grouting.KNearest {
						continue
					}
					if want := grouting.AnswerKNN(g, emb, q); results[q.ID] != want {
						t.Fatalf("%s: query %d on node %d: got %+v, want %+v",
							tc.name, q.ID, q.Node, results[q.ID], want)
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

			// A query node that has no record is ErrUnknownNode on both,
			// not an empty neighbourhood on one of them.
			unknown := grouting.Query{Type: grouting.KNearest, Node: 1 << 30, Hops: 2, K: 3, Dir: grouting.Both}
			for _, c := range []grouting.Client{local, remote} {
				if res, err := c.Execute(ctx, unknown); !errors.Is(err, grouting.ErrUnknownNode) {
					t.Errorf("k-nearest at an unknown node = %+v, %v; want ErrUnknownNode", res, err)
				}
			}
		})
	}
}

// TestClientStreamCancellationKNN mirrors the multi-anchor mid-stream
// cancellation case with the KNN-bearing mix: an endless MixedTypesKNN
// feed through ExecuteStream is cancelled mid-flight on both transports.
// Pre-cancel outcomes must match the oracle (AnswerKNN for the new
// class), racing outcomes must carry a typed error, and the stream must
// close. Under -race this exercises the concurrent cancellation paths
// through the KNearest re-rank.
func TestClientStreamCancellationKNN(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	emb := sharedEmbedding(t, g)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 40, QueriesPerHotspot: 10, R: 2, H: 2,
		Types: grouting.MixedTypesKNN, VisitBudget: 4, K: 5, Seed: 5,
	})
	oracle := func(q grouting.Query) grouting.Result {
		if q.Type == grouting.KNearest {
			return grouting.AnswerKNN(g, emb, q)
		}
		return grouting.Answer(g, q)
	}

	sys, err := grouting.New(g,
		grouting.WithProcessors(2),
		grouting.WithStorageServers(2),
		grouting.WithPolicy(grouting.PolicyHash),
		grouting.WithSeed(2),
		grouting.WithEmbedProvider(grouting.NewFileProvider(emb)),
	)
	if err != nil {
		t.Fatal(err)
	}
	local, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}
	remote := startKNNCluster(t, g, grouting.PolicyHash, grouting.NewFileProvider(emb))

	for _, tc := range []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Stats names the table's source under a policy that built none.
			if st, err := tc.c.Stats(ctx); err != nil || st.EmbedProvider != "file" || st.EmbedDimensions != int64(emb.D) {
				t.Errorf("Stats: embedding of %d dimensions from provider %q (err %v), want %d from \"file\"",
					st.EmbedDimensions, st.EmbedProvider, err, emb.D)
			}
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
				if want := oracle(o.Query); o.Result != want {
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
						if want := oracle(o.Query); o.Result != want {
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

// TestKNNDegradedProvider pins the degraded-provider contract on both
// transports: with a provider that cannot serve coordinates and a policy
// that routes without them, the system starts and answers everything
// except KNearest, which fails with the typed ErrUnavailable; a policy
// that requires the embedding refuses to construct at all.
func TestKNNDegradedProvider(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	ctx := context.Background()
	failing := funcEmbedder{name: "down"}

	anchor := g.Nodes()[1]
	knnQ := grouting.Query{Type: grouting.KNearest, Node: anchor, Hops: 2, K: 4, Dir: grouting.Both}
	plainQ := grouting.Query{Type: grouting.NeighborAgg, Node: anchor, Hops: 2, Dir: grouting.Out}

	// Local transport, degraded start.
	sys, err := grouting.New(g,
		grouting.WithProcessors(2),
		grouting.WithStorageServers(2),
		grouting.WithPolicy(grouting.PolicyHash),
		grouting.WithSeed(2),
		grouting.WithEmbedProvider(failing),
	)
	if err != nil {
		t.Fatalf("degraded system must still construct: %v", err)
	}
	local, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}

	// TCP transport, degraded start.
	remote := startKNNCluster(t, g, grouting.PolicyHash, failing)

	for _, tc := range []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}} {
		if _, err := tc.c.Execute(ctx, knnQ); !errors.Is(err, grouting.ErrUnavailable) {
			t.Errorf("%s: KNearest on degraded provider: err = %v, want ErrUnavailable", tc.name, err)
		}
		res, err := tc.c.Execute(ctx, plainQ)
		if err != nil {
			t.Errorf("%s: classic query on degraded system: %v", tc.name, err)
		} else if want := grouting.Answer(g, plainQ); res != want {
			t.Errorf("%s: classic query: got %+v, want %+v", tc.name, res, want)
		}
	}

	// A KNearest on a system with no embedding at all (no provider, policy
	// builds none) is the same typed error.
	bare, err := grouting.New(g,
		grouting.WithProcessors(2),
		grouting.WithStorageServers(2),
		grouting.WithPolicy(grouting.PolicyHash),
		grouting.WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	bareCl, err := grouting.NewLocalClient(bare)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bareCl.Execute(ctx, knnQ); !errors.Is(err, grouting.ErrUnavailable) {
		t.Errorf("KNearest without embedding: err = %v, want ErrUnavailable", err)
	}

	// An embedding-requiring policy cannot start on a failed provider.
	if _, err := grouting.New(g,
		grouting.WithPolicy(grouting.PolicyEmbed),
		grouting.WithEmbedProvider(failing),
	); err == nil {
		t.Error("PolicyEmbed constructed over a failed provider")
	}
	if _, err := grouting.ServeRouter("127.0.0.1:0", grouting.RouterSpec{
		Processors:    []string{"127.0.0.1:1"},
		Policy:        grouting.PolicyEmbed,
		Graph:         g,
		Seed:          7,
		EmbedProvider: failing,
	}); err == nil {
		t.Error("TCP router with PolicyEmbed constructed over a failed provider")
	}
}
