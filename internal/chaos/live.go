package chaos

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/rpc"
)

// liveTimeout bounds each live query; a query that cannot complete in
// this window (even across replica failovers) counts as unavailable.
const liveTimeout = 5 * time.Second

// LiveHarness runs scenarios against a real TCP deployment: durable
// storage shards, processors and a router as actual daemons on loopback
// sockets. Kill closes the shard's listener and severs every live
// connection — real crash semantics — and restart brings a new instance
// up on the same address over the same WAL directory, re-registering
// with the router (the rejoin-warm handshake). Faults the client-side
// placement cannot express over TCP (netsplit, slow links, membership
// moves) report as unsupported, and the runner skips those scenarios on
// this harness rather than faking them.
type LiveHarness struct {
	dir     string
	sc      *Scenario
	shards  []*rpc.StorageServer
	addrs   []string
	procs   []*rpc.ProcessorServer
	router  *rpc.RouterServer
	client  *rpc.RouterClient
	started time.Time
}

// NewLiveHarness returns an unstarted live-TCP harness.
func NewLiveHarness() *LiveHarness { return &LiveHarness{} }

func (h *LiveHarness) Name() string { return "live" }

// Supports: kill and restart are real over TCP. Drain, add, netsplit, heal
// and slow-link are not implemented on this harness and come back Skipped —
// the rpc tier itself has join, drain and membership; driving them (and
// link faults) from here waits for the in-memory fault fabric the ROADMAP
// plans, a net.Listener / net.Conn the real daemons run on.
func (h *LiveHarness) Supports(a Action) bool {
	return a == ActionKill || a == ActionRestart
}

func (h *LiveHarness) Start(sc *Scenario, g *graph.Graph) error {
	h.sc = sc
	dir, err := os.MkdirTemp("", "grouting-chaos-live-*")
	if err != nil {
		return err
	}
	h.dir = dir
	for i := 0; i < sc.StorageServers; i++ {
		srv, err := h.startShard(i, "127.0.0.1:0")
		if err != nil {
			h.Close()
			return err
		}
		h.shards = append(h.shards, srv)
		h.addrs = append(h.addrs, srv.Addr())
	}
	loader, err := rpc.DialStorageReplicated(h.addrs, sc.StorageReplicas)
	if err != nil {
		h.Close()
		return err
	}
	lerr := loader.LoadGraph(context.Background(), g)
	loader.Close()
	if lerr != nil {
		h.Close()
		return lerr
	}
	for i := 0; i < sc.Processors; i++ {
		ps, err := rpc.NewProcessorServerWith("127.0.0.1:0", rpc.ProcessorConfig{
			Storage: h.addrs, StorageReplicas: sc.StorageReplicas, CacheBytes: 16 << 20,
		})
		if err != nil {
			h.Close()
			return err
		}
		h.procs = append(h.procs, ps)
	}
	procAddrs := make([]string, len(h.procs))
	for i, p := range h.procs {
		procAddrs[i] = p.Addr()
	}
	// Seeding StorageAddrs gives the router the write path's placement
	// domain (mutations need it); the Register calls below still run — a
	// join at a seeded address is idempotent and doubles as the shards'
	// durable-version announcement. The graph gives it the label table the
	// loader encoded with, which labelled mutations intern into, as on the
	// sim harness.
	rs, err := rpc.NewRouterServer("127.0.0.1:0", rpc.RouterConfig{
		ProcessorAddrs: procAddrs, StorageAddrs: h.addrs, StorageReplicas: sc.StorageReplicas, Graph: g,
	})
	if err != nil {
		h.Close()
		return err
	}
	h.router = rs
	for _, srv := range h.shards {
		if _, err := srv.Register(context.Background(), rs.Addr(), ""); err != nil {
			h.Close()
			return err
		}
	}
	cl, err := rpc.DialRouter(context.Background(), rs.Addr())
	if err != nil {
		h.Close()
		return err
	}
	h.client = cl
	h.started = time.Now()
	return nil
}

// startShard brings shard slot up on addr over its per-slot WAL
// directory (a plain in-memory shard when the scenario is not durable).
func (h *LiveHarness) startShard(slot int, addr string) (*rpc.StorageServer, error) {
	if !h.sc.Durable {
		return rpc.NewStorageServer(addr)
	}
	srv, err := rpc.NewStorageServerDurable(addr, filepath.Join(h.dir, fmt.Sprintf("shard-%d", slot)), false)
	if err != nil {
		return nil, err
	}
	srv.SetSnapshotEvery(h.sc.SnapshotEvery)
	return srv, nil
}

func (h *LiveHarness) Execute(q query.Query) (query.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), liveTimeout)
	defer cancel()
	return h.client.Execute(ctx, q)
}

// Mutate pushes one write through the router's write path. The router
// acks only after every replica of the record's placement took the write
// and every processor cache dropped it, so a kill window surfaces here as
// an unacked error — exactly what the runner's settle phase retries.
func (h *LiveHarness) Mutate(m query.Mutation) error {
	ctx, cancel := context.WithTimeout(context.Background(), liveTimeout)
	defer cancel()
	_, err := h.client.Mutate(ctx, []query.Mutation{m})
	return err
}

func (h *LiveHarness) Apply(st Step) error {
	switch st.Action {
	case ActionKill:
		if h.shards[st.Target] == nil {
			return fmt.Errorf("chaos: live: slot %d already down", st.Target)
		}
		h.shards[st.Target].Close()
		h.shards[st.Target] = nil
		return nil
	case ActionRestart:
		if h.shards[st.Target] != nil {
			return fmt.Errorf("chaos: live: slot %d is not down", st.Target)
		}
		srv, err := h.startShard(st.Target, h.addrs[st.Target])
		if err != nil {
			return err
		}
		h.shards[st.Target] = srv
		// Re-register: the rejoin-warm handshake announces the durable
		// version the shard recovered from its local WAL + snapshot.
		ctx, cancel := context.WithTimeout(context.Background(), liveTimeout)
		defer cancel()
		_, err = srv.Register(ctx, h.router.Addr(), "")
		return err
	}
	return fmt.Errorf("chaos: live: unsupported action %q", st.Action)
}

func (h *LiveHarness) Elapsed() time.Duration { return time.Since(h.started) }

func (h *LiveHarness) wallClock() bool { return true }

// RepairBytes: over TCP there is no re-replication machinery to observe
// (placement is client-side) — the warm-rejoin bound is checked on the
// simnet harness instead.
func (h *LiveHarness) RepairBytes() int64 { return -1 }

func (h *LiveHarness) ShardBytes(int) int64 { return 0 }

func (h *LiveHarness) Close() {
	if h.client != nil {
		h.client.Close()
		h.client = nil
	}
	if h.router != nil {
		h.router.Close()
		h.router = nil
	}
	for i, p := range h.procs {
		if p != nil {
			p.Close()
			h.procs[i] = nil
		}
	}
	for i, s := range h.shards {
		if s != nil {
			s.Close()
			h.shards[i] = nil
		}
	}
	if h.dir != "" {
		os.RemoveAll(h.dir)
		h.dir = ""
	}
}
