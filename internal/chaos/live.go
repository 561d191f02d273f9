package chaos

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/rpc"
)

// liveTimeout bounds each live query; a query that cannot complete in
// this window (even across replica failovers) counts as unavailable.
const liveTimeout = 5 * time.Second

// LiveHarness runs scenarios against a real TCP deployment: the
// rpc.Loopback deployment of the scenario's configuration — the one the
// sim harness builds its system from — as actual daemons on loopback
// sockets. Kill closes the shard's listener and severs every live
// connection — real crash semantics — and restart brings a new instance
// up on the same address over the same WAL directory, re-registering
// with the router (the rejoin-warm handshake). Faults the client-side
// placement cannot express over TCP (netsplit, slow links, membership
// moves) report as unsupported, and the runner skips those scenarios on
// this harness rather than faking them.
type LiveHarness struct {
	dir     string // durable storage dir (removed on Close)
	d       *rpc.Deployment
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
	cfg, dir, err := sc.deployment()
	if err != nil {
		return err
	}
	h.dir = dir
	if h.d, err = rpc.Loopback(context.Background(), g, cfg); err != nil {
		h.Close()
		return err
	}
	if h.client, err = rpc.DialRouter(context.Background(), h.d.Addr()); err != nil {
		h.Close()
		return err
	}
	h.started = time.Now()
	return nil
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
		return h.d.KillStorage(st.Target)
	case ActionRestart:
		ctx, cancel := context.WithTimeout(context.Background(), liveTimeout)
		defer cancel()
		return h.d.RestartStorage(ctx, st.Target)
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
	if h.d != nil {
		h.d.Close()
		h.d = nil
	}
	if h.dir != "" {
		os.RemoveAll(h.dir)
		h.dir = ""
	}
}
