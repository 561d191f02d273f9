package grouting

import (
	"context"
	"runtime"

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
// is acked, and the log is rewritten as the live records whenever the
// shard cleans them. Starting over a directory left by a previous (even
// killed) process replays the log, so the shard comes back warm with
// every acked write and announces
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
type RouterSpec = rpc.RouterConfig

// ServeRouter starts a query router on addr serving in the background: it
// is rpc.NewRouterServer, which builds the routing strategy spec describes,
// followed by one garbage collection.
func ServeRouter(addr string, spec RouterSpec) (*RouterServer, error) {
	rs, err := rpc.NewRouterServer(addr, spec)
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
	c := &netClient{rc: rc}
	c.writes = writes{c.Mutate}
	return c, nil
}

// netClient adapts the pooled rpc router client to the Client interface.
type netClient struct {
	writes
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
	return c.rc.Mutate(ctx, muts)
}

func (c *netClient) Stats(ctx context.Context) (Stats, error) {
	snap, err := c.rc.Stats(ctx)
	if err != nil {
		return Stats{}, err
	}
	return *snap, nil
}

func (c *netClient) Close() error { return c.rc.Close() }
