package chaos

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
)

// Harness abstracts the system a scenario executes against. Two
// implementations exist: SimHarness drives the virtual-time engine
// (every action supported, deterministic), LiveHarness drives a real
// TCP deployment of the daemons (kill and restart are real process-level
// crash semantics; faults a client-side-placement deployment cannot
// express report as unsupported and the runner skips the scenario).
type Harness interface {
	// Name identifies the harness in results ("sim", "live").
	Name() string
	// Supports reports whether the harness can inject the action.
	Supports(a Action) bool
	// Start builds and loads the deployment for the scenario.
	Start(sc *Scenario, g *graph.Graph) error
	// Execute runs one query to completion.
	Execute(q query.Query) (query.Result, error)
	// Mutate applies one online graph write through the deployment's
	// write path. A nil return is an ack: the write is on every replica
	// of its placement and visible to every subsequent read.
	Mutate(m query.Mutation) error
	// Apply fires one scheduled step.
	Apply(st Step) error
	// Elapsed is the harness clock — virtual time for the simnet engine,
	// wall time for the live one. The runner reads it around the
	// workload to compute goodput.
	Elapsed() time.Duration
	// wallClock reports whether Elapsed is wall time. Goodput measured over
	// two ≈ 100-ms wall-clock passes reads ratios 0.65–1.51 on an idle host
	// with no code at fault, so the runner reports the ratio on such a
	// harness and holds only a virtual clock to Invariants.GoodputFloor.
	wallClock() bool
	// RepairBytes is the cumulative re-replication byte count across the
	// tier, or -1 when the harness cannot observe it.
	RepairBytes() int64
	// ShardBytes is a shard's resident value bytes (0 when unobservable).
	ShardBytes(slot int) int64
	// Close tears the deployment down.
	Close()
}

// SimHarness runs scenarios on the virtual-time engine: faults map onto
// the kvstore's crash/restart/partition machinery and the simnet
// timeline's injected link latency, so runs are fast and deterministic.
type SimHarness struct {
	sys *core.System
	ses *core.Session
	dir string // durable storage dir (removed on Close)
}

// NewSimHarness returns an unstarted simnet harness.
func NewSimHarness() *SimHarness { return &SimHarness{} }

func (h *SimHarness) Name() string { return "sim" }

// Supports: the simnet engine injects every fault kind.
func (h *SimHarness) Supports(Action) bool { return true }

// deployment is the one configuration both harnesses build a scenario's
// deployment from: its topology, hash routing at its seed and 16 MiB
// processor caches, durable under a fresh temporary directory — returned
// for the harness to remove — when the scenario is.
func (sc *Scenario) deployment() (core.Config, string, error) {
	cfg := core.Config{
		Processors:      sc.Processors,
		StorageServers:  sc.StorageServers,
		StorageReplicas: sc.StorageReplicas,
		Policy:          core.PolicyHash,
		CacheBytes:      16 << 20,
		Seed:            sc.Seed,
	}
	if !sc.Durable {
		return cfg, "", nil
	}
	dir, err := os.MkdirTemp("", "grouting-chaos-*")
	if err != nil {
		return cfg, "", fmt.Errorf("chaos: durable dir: %w", err)
	}
	cfg.StorageDir = dir
	return cfg, dir, nil
}

func (h *SimHarness) Start(sc *Scenario, g *graph.Graph) error {
	cfg, dir, err := sc.deployment()
	if err != nil {
		return err
	}
	h.dir = dir
	sys, err := core.NewSystem(g, cfg)
	if err != nil {
		h.Close()
		return err
	}
	ses, err := sys.NewSession()
	if err != nil {
		h.Close()
		return err
	}
	h.sys, h.ses = sys, ses
	return nil
}

func (h *SimHarness) Execute(q query.Query) (query.Result, error) {
	res, _, err := h.ses.Execute(q)
	return res, err
}

func (h *SimHarness) Mutate(m query.Mutation) error {
	_, err := h.ses.Mutate(m)
	return err
}

func (h *SimHarness) Apply(st Step) error {
	switch st.Action {
	case ActionKill:
		return h.sys.CrashStorage(st.Target)
	case ActionRestart:
		return h.sys.RestartStorage(st.Target)
	case ActionDrain:
		return h.sys.DrainStorage(st.Target)
	case ActionAdd:
		_, err := h.sys.AddStorage()
		return err
	case ActionNetsplit:
		return h.sys.PartitionStorage(st.Target)
	case ActionHeal:
		return h.sys.HealStorage(st.Target)
	case ActionSlowLink:
		h.ses.SetStorageDelay(st.Target, st.Delay())
		return nil
	}
	return fmt.Errorf("chaos: sim: unknown action %q", st.Action)
}

func (h *SimHarness) Elapsed() time.Duration { return h.ses.Now() }

func (h *SimHarness) wallClock() bool { return false }

// RepairBytes sums re-replication bytes over every shard that ever
// existed — repairs write to the surviving/restarted shards, so the sum
// is the tier-wide re-replication traffic.
func (h *SimHarness) RepairBytes() int64 {
	st := h.sys.Store()
	var total int64
	for slot := 0; slot < st.NumServers(); slot++ {
		total += st.Stats(slot).RepairBytes
	}
	return total
}

func (h *SimHarness) ShardBytes(slot int) int64 { return h.sys.Store().Stats(slot).Bytes }

func (h *SimHarness) Close() {
	if h.dir != "" {
		os.RemoveAll(h.dir)
		h.dir = ""
	}
}
