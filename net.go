package grouting

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/embed"
	"repro/internal/rpc"
)

// Networked deployment daemons, promoted from internal/rpc: the same
// decoupled tiers as the virtual-time engine, as real TCP servers.
type (
	// StorageServer is one shard of the networked storage tier.
	StorageServer = rpc.StorageServer
	// ProcessorServer is one networked query processor.
	ProcessorServer = rpc.ProcessorServer
	// RouterServer is the networked query router.
	RouterServer = rpc.RouterServer
)

// ServeStorage starts a storage shard on addr ("127.0.0.1:0" for an
// ephemeral port) serving in the background.
func ServeStorage(addr string) (*StorageServer, error) { return rpc.NewStorageServer(addr) }

// ServeStorageDurable starts a storage shard whose writes survive a
// crash: every put is appended to a write-ahead log under dir before it
// is acked, periodically compacted into a snapshot. Starting over a
// directory left by a previous (even killed) process replays snapshot +
// WAL, so the shard comes back warm with every acked write and announces
// its recovered watermark when it re-registers with a router. With fsync
// true each append is fsynced (durable against machine crash, not just
// process death).
func ServeStorageDurable(addr, dir string, fsync bool) (*StorageServer, error) {
	return rpc.NewStorageServerDurable(addr, dir, fsync)
}

// ProcessorSpec configures a networked query processor: the storage shards
// it fetches from, their replication factor and its cache capacity.
type ProcessorSpec = rpc.ProcessorConfig

// ServeProcessorWith starts a query processor on addr serving in the
// background.
func ServeProcessorWith(addr string, spec ProcessorSpec) (*ProcessorServer, error) {
	return rpc.NewProcessorServerWith(addr, spec)
}

// RouterSpec configures a networked router.
type RouterSpec struct {
	// Processors lists the initial processing tier's addresses; more
	// processors can join the running router at any time with
	// ProcessorServer.Register (groutingd -join) and leave cleanly with
	// Deregister, each transition producing a new topology epoch.
	Processors []string
	// Policy selects the routing scheme. Smart policies (PolicyLandmark,
	// PolicyEmbed) need Graph for preprocessing.
	Policy Policy
	// Graph is the loaded dataset. ServeRouter reads it during
	// construction — the smart policies' preprocessing runs over it — and
	// does not retain it: the router keeps the routing tables built from it
	// and its label table (shared with the graph, not copied), which
	// labelled patterns and labelled mutations resolve against. A caller
	// that wants the router's memory to be those tables drops its own
	// reference too; one that keeps the graph (an oracle, a second client)
	// simply keeps it. Without a graph the baseline policies still route,
	// and labelled patterns and mutations are rejected with ErrBadQuery.
	Graph *Graph
	// Seed drives the preprocessing's stochastic choices.
	Seed int64
	// Storage optionally seeds the router's storage view: the listed
	// shards appear in Stats()/grouting-cli -topology with their status
	// and shard counters, and more can join at runtime with
	// StorageServer.Register (groutingd -role storage -join). It is also
	// the write path: the router applies mutations (Client.Mutate through
	// Dial) and adaptive-placement moves through the same storage client
	// the processors read through, over exactly these shards — so list
	// the shards, in the order, the loader and the processors were given.
	Storage []string
	// StorageReplicas is the deployment's storage replication factor —
	// the one the loader and the processors use; the router's writes go
	// to that many replicas and Stats() reports it (0 reads as 1).
	StorageReplicas int
	// AdaptivePlacement enables the workload-adaptive placement subsystem
	// on the router: it periodically drains per-record read heat from the
	// processors and migrates hot records toward their dominant reader as
	// bounded copy-then-drop moves. Requires Storage.
	AdaptivePlacement bool
	// PlacementBudget bounds the bytes migrated per planning cycle
	// (<= 0 = unbounded).
	PlacementBudget int64
	// PlacementEvery runs one planning cycle automatically after that
	// many completed queries (0 = only explicit cycles).
	PlacementEvery int
	// PlacementMinReads is the planner's hysteresis floor (0 = default).
	PlacementMinReads int64
	// EmbedProvider supplies node coordinates from a pluggable source
	// (OpenEmbeddingFile, NewFileProvider, or any user Embedder) instead
	// of the built-in learned embedding. It is materialised once at router
	// start and then serves both embedding-based routing and KNearest
	// ranking. Providers without their own snapshot need Graph to walk.
	// When it fails and the policy does not require an embedding, the
	// router starts degraded: KNearest queries answer the typed
	// ErrUnavailable; everything else is unaffected.
	EmbedProvider Embedder
}

// ServeRouter starts a query router on addr: it builds the routing
// strategy (running smart-routing preprocessing over spec.Graph when the
// policy needs it, or materialising spec.EmbedProvider), connects to the
// processors and serves in the background.
func ServeRouter(addr string, spec RouterSpec) (*RouterServer, error) {
	if spec.Policy.NeedsLandmarks() && spec.Graph == nil {
		return nil, fmt.Errorf("grouting: policy %v needs a graph for preprocessing", spec.Policy)
	}
	var emb *Embedding
	var embErr error
	if spec.EmbedProvider != nil {
		emb, embErr = embed.Materialize(context.Background(), spec.EmbedProvider, spec.Graph)
		if embErr != nil {
			if spec.Policy.NeedsEmbedding() {
				// The strategy cannot route without coordinates.
				return nil, fmt.Errorf("grouting: embed provider %q: %w", spec.EmbedProvider.Name(), embErr)
			}
			emb = nil // degraded start: KNearest reports embErr per query
		}
	}
	strat, emb, err := rpc.BuildStrategyEmbed(spec.Policy.String(), spec.Graph, len(spec.Processors), spec.Seed, emb)
	if err != nil {
		return nil, err
	}
	rs, err := rpc.NewRouterServer(addr, rpc.RouterConfig{
		ProcessorAddrs:    spec.Processors,
		Strategy:          strat,
		PolicyName:        spec.Policy.String(),
		StorageAddrs:      spec.Storage,
		StorageReplicas:   spec.StorageReplicas,
		Graph:             spec.Graph,
		AdaptivePlacement: spec.AdaptivePlacement,
		PlacementBudget:   spec.PlacementBudget,
		PlacementEvery:    spec.PlacementEvery,
		PlacementMinReads: spec.PlacementMinReads,
		Embedding:         emb,
		EmbedProvider:     embed.SourceName(spec.EmbedProvider),
		EmbedErr:          embErr,
	})
	if err != nil {
		return nil, err
	}
	// The one collection at the boundary between preprocessing and serving,
	// after the last use of spec.Graph. The heap's next goal is twice what
	// the last cycle found live: without this the graph — dead but never
	// collected — and the preprocessing's garbage are still in that figure,
	// and per-query garbage may grow the heap to twice the graph before the
	// first collection of the serving phase. Measured on the benchmark's
	// router (60 k nodes, hash): peak resident 35 MiB without it, 22 with.
	runtime.GC()
	return rs, nil
}

// LoadStorageReplicated bulk-loads every live node of g across the storage
// shards — the networked analogue of what NewSystem does in-process — with
// the given replication factor (0 reads as 1). Each record goes to every
// shard of its placement: the murmur-hashed shard at 1, the rendezvous set
// of that many shards above. A shard that cannot be written fails the load
// rather than leaving the record under-replicated. Processors and the router
// reading the data must be given the same factor
// (ProcessorSpec.StorageReplicas, RouterSpec.StorageReplicas, groutingd
// -storage-replicas).
func LoadStorageReplicated(ctx context.Context, g *Graph, storageAddrs []string, replicas int) error {
	sc, err := rpc.DialStorageReplicated(storageAddrs, max(replicas, 1))
	if err != nil {
		return err
	}
	defer sc.Close()
	return sc.LoadGraph(ctx, g)
}

// streamWorkers is how many queries a networked client's ExecuteStream
// keeps in flight.
const streamWorkers = 4

// Dial connects a Client to a networked deployment's router. The returned
// client satisfies the same Client interface as NewLocalClient: identical
// results, the same typed errors, contexts honoured end to end (the
// router forwards the caller's deadline to the processors).
func Dial(ctx context.Context, routerAddr string) (Client, error) {
	rc, err := rpc.DialRouter(ctx, routerAddr)
	if err != nil {
		return nil, err
	}
	return &netClient{rc: rc}, nil
}

// TriggerPlacement asks a networked deployment's router to run one
// adaptive-placement planning cycle now and returns how many records
// moved. Routers running without the subsystem reject it with ErrBadQuery.
// Deployments with RouterSpec.PlacementEvery > 0 cycle automatically; an
// explicit trigger composes with that (cycles are serialised).
func TriggerPlacement(ctx context.Context, routerAddr string) (int, error) {
	rc, err := rpc.DialRouter(ctx, routerAddr)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	return rc.Migrate(ctx)
}

// netClient adapts the pooled rpc router client to the Client interface.
type netClient struct {
	rc *rpc.RouterClient
}

func (c *netClient) Execute(ctx context.Context, q Query) (Result, error) {
	return c.rc.Execute(ctx, q)
}

func (c *netClient) ExecuteBatch(ctx context.Context, qs []Query) ([]Result, error) {
	return c.rc.ExecuteBatch(ctx, qs)
}

func (c *netClient) ExecuteStream(ctx context.Context, in <-chan Query) <-chan Outcome {
	return stream(ctx, in, streamWorkers, c.rc.Execute)
}

func (c *netClient) Mutate(ctx context.Context, muts []Mutation) (int, error) {
	wire := make([]rpc.Mutation, len(muts))
	for i, m := range muts {
		wire[i] = rpc.Mutation{Op: m.Op, Node: m.Node, To: m.To, Label: m.Label}
	}
	return c.rc.Mutate(ctx, wire)
}

func (c *netClient) UpsertNode(ctx context.Context, id NodeID, label string) error {
	_, err := c.Mutate(ctx, []Mutation{{Op: MutUpsertNode, Node: id, Label: label}})
	return err
}

func (c *netClient) AddEdge(ctx context.Context, u, v NodeID, label string) error {
	_, err := c.Mutate(ctx, []Mutation{{Op: MutAddEdge, Node: u, To: v, Label: label}})
	return err
}

func (c *netClient) RemoveEdge(ctx context.Context, u, v NodeID) error {
	_, err := c.Mutate(ctx, []Mutation{{Op: MutRemoveEdge, Node: u, To: v}})
	return err
}

func (c *netClient) Stats(ctx context.Context) (Stats, error) {
	snap, err := c.rc.Stats(ctx)
	if err != nil {
		return Stats{}, err
	}
	return *snap, nil
}

func (c *netClient) Close() error { return c.rc.Close() }
