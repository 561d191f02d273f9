// Package chaos is a declarative fault-injection framework for the
// storage tier: a scenario is *data* — a two-tier topology, a workload,
// a scripted schedule of faults expressed as fractions of workload
// progress, and a set of invariants — and the same scenario executes
// against either the virtual-time simnet engine (internal/core) or a
// real TCP deployment of the daemons (internal/rpc). The runner replays
// the scenario's workload, fires each fault at its scheduled progress
// point, verifies every successful answer against the in-memory oracle,
// and checks the invariants: zero wrong answers (always), a goodput
// floor relative to a fault-free control run, a bounded
// queries-to-recovery after each restart or heal, and a bound on the
// re-replication bytes a warm (WAL-recovered) restart may incur.
package chaos

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/topology"
)

// Action is one fault (or repair) kind a scenario step can fire.
type Action string

// Actions. All target the storage tier — the chaos framework exists to
// exercise the durability and replication machinery under it.
const (
	// ActionKill crashes a storage shard: in-memory state is lost, the
	// shard's local WAL (when the scenario is durable) survives.
	ActionKill Action = "kill"
	// ActionRestart restarts a killed shard over its local files; a
	// durable shard comes back warm and re-replication only tops up the
	// delta written during the outage.
	ActionRestart Action = "restart"
	// ActionDrain removes a shard gracefully (its keys are copied off
	// first on the simnet engine).
	ActionDrain Action = "drain"
	// ActionAdd scales the storage tier out by one shard (Target ignored).
	ActionAdd Action = "add"
	// ActionNetsplit partitions a shard from the tier: it stays up and
	// keeps its data, but nothing can reach it until ActionHeal.
	ActionNetsplit Action = "netsplit"
	// ActionHeal heals a netsplit partition.
	ActionHeal Action = "heal"
	// ActionSlowLink injects DelayMicros of extra link latency on every
	// request a shard serves (DelayMicros 0 clears it).
	ActionSlowLink Action = "slowlink"
)

// Step is one scheduled fault: at fraction At of the workload, apply
// Action to storage slot Target.
type Step struct {
	// At is the workload progress fraction in [0,1) at which the step
	// fires (0.5 = after half the queries have been submitted).
	At     float64 `json:"at"`
	Action Action  `json:"action"`
	// Target is the storage slot the action applies to (ignored by add).
	Target int `json:"target"`
	// DelayMicros is the injected per-request latency for slowlink steps,
	// in microseconds (0 clears the slow link).
	DelayMicros int64 `json:"delay_micros,omitempty"`
}

// Delay returns a slowlink step's injected latency.
func (st Step) Delay() time.Duration { return time.Duration(st.DelayMicros) * time.Microsecond }

// Invariants are the checks the runner applies after the fault run.
// Zero wrong answers is not listed: it is unconditional — any result
// that disagrees with the oracle fails the scenario.
type Invariants struct {
	// GoodputFloor is the minimum answered-queries-per-second of the
	// fault run relative to the fault-free control run (0.7 = the fault
	// run must sustain at least 70% of control goodput). 0 skips, and so
	// does a harness whose clock is the wall clock (Harness.wallClock):
	// there the ratio is reported, not enforced.
	GoodputFloor float64 `json:"goodput_floor,omitempty"`
	// MaxUnavailable bounds the fraction of queries allowed to fail with
	// the typed unavailable error. Replicated scenarios typically demand
	// 0 (set Checked true); unreplicated netsplits expect a dip.
	MaxUnavailable float64 `json:"max_unavailable"`
	// RecoveryWithin bounds, for every restart and heal step, how many
	// subsequent queries may pass before one succeeds. 0 skips.
	RecoveryWithin int `json:"recovery_within,omitempty"`
	// MaxRejoinFraction bounds the re-replication bytes copied during a
	// restart, as a fraction of the shard's pre-kill resident bytes (the
	// warm-rejoin bound: a WAL-recovered shard needs only the delta, a
	// cold one needs a full copy). Checked only on harnesses that report
	// repair bytes. 0 skips.
	MaxRejoinFraction float64 `json:"max_rejoin_fraction,omitempty"`
	// MaxWriteUnavailable bounds the fraction of the write script allowed
	// to fail unacked during the fault run (the write path acks only after
	// every replica took the write, so writes touching a down shard fail
	// by design until the restart). The default 0 demands every write ack
	// first try. Lost *acked* writes are never tolerated, whatever this is
	// set to.
	MaxWriteUnavailable float64 `json:"max_write_unavailable,omitempty"`
}

// Scenario is one declarative chaos experiment.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Topology.
	Processors      int  `json:"processors"`
	StorageServers  int  `json:"storage_servers"`
	StorageReplicas int  `json:"storage_replicas"`
	Durable         bool `json:"durable"`

	// Workload: a deterministic synthetic graph of Nodes nodes and a
	// hotspot query workload of Queries queries, both derived from Seed.
	Nodes   int   `json:"nodes"`
	Queries int   `json:"queries"`
	Seed    int64 `json:"seed"`

	// MutateEvery interleaves online graph writes with the queries: after
	// every MutateEvery-th query the runner issues the next write of a
	// deterministic script (fresh nodes chained by edges, with periodic
	// edge removals) through the deployment's write path. After the
	// workload the runner retries every unacked write until it lands, then
	// reads the whole written state back and compares it against the fully
	// applied script — a lost acked write or a tombstoned edge that
	// resurrected is a violation. 0 = read-only scenario.
	MutateEvery int `json:"mutate_every,omitempty"`

	Steps      []Step     `json:"steps"`
	Invariants Invariants `json:"invariants"`
}

// Parse decodes a scenario from JSON and validates it.
func Parse(data []byte) (*Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("chaos: parse scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// JSON encodes the scenario, indented, ending in a newline.
func (sc *Scenario) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Validate checks the scenario is structurally runnable: sane topology,
// ordered in-range steps, and a fault schedule whose kill / restart and
// netsplit / heal pairs are well formed per target.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("chaos: scenario needs a name")
	}
	if sc.Processors < 1 {
		return fmt.Errorf("chaos: %s: processors = %d, need >= 1", sc.Name, sc.Processors)
	}
	if sc.StorageServers < 1 {
		return fmt.Errorf("chaos: %s: storage servers = %d, need >= 1", sc.Name, sc.StorageServers)
	}
	if sc.StorageReplicas < 1 || sc.StorageReplicas > topology.MaxReplicas {
		return fmt.Errorf("chaos: %s: storage replicas = %d outside [1,%d]", sc.Name, sc.StorageReplicas, topology.MaxReplicas)
	}
	if sc.StorageReplicas > sc.StorageServers {
		return fmt.Errorf("chaos: %s: replicas %d exceed storage servers %d", sc.Name, sc.StorageReplicas, sc.StorageServers)
	}
	if sc.Nodes < 1 || sc.Queries < 1 {
		return fmt.Errorf("chaos: %s: workload needs nodes and queries >= 1", sc.Name)
	}
	if sc.MutateEvery < 0 {
		return fmt.Errorf("chaos: %s: mutate_every = %d, need >= 0", sc.Name, sc.MutateEvery)
	}
	if !sort.SliceIsSorted(sc.Steps, func(i, j int) bool { return sc.Steps[i].At < sc.Steps[j].At }) {
		return fmt.Errorf("chaos: %s: steps must be sorted by at", sc.Name)
	}
	// Per-target fault-state machine: a restart needs a prior kill, a
	// heal a prior netsplit, and no double-kill / double-split.
	shards := sc.StorageServers
	killed := map[int]bool{}
	parted := map[int]bool{}
	for i, st := range sc.Steps {
		if st.At < 0 || st.At >= 1 {
			return fmt.Errorf("chaos: %s: step %d at %v outside [0,1)", sc.Name, i, st.At)
		}
		if st.Action != ActionAdd && (st.Target < 0 || st.Target >= shards) {
			return fmt.Errorf("chaos: %s: step %d targets slot %d of %d", sc.Name, i, st.Target, shards)
		}
		switch st.Action {
		case ActionKill:
			if killed[st.Target] {
				return fmt.Errorf("chaos: %s: step %d kills slot %d twice", sc.Name, i, st.Target)
			}
			killed[st.Target] = true
		case ActionRestart:
			if !killed[st.Target] {
				return fmt.Errorf("chaos: %s: step %d restarts slot %d, which is not down", sc.Name, i, st.Target)
			}
			delete(killed, st.Target)
		case ActionNetsplit:
			if parted[st.Target] {
				return fmt.Errorf("chaos: %s: step %d partitions slot %d twice", sc.Name, i, st.Target)
			}
			parted[st.Target] = true
		case ActionHeal:
			if !parted[st.Target] {
				return fmt.Errorf("chaos: %s: step %d heals slot %d, which is not partitioned", sc.Name, i, st.Target)
			}
			delete(parted, st.Target)
		case ActionAdd:
			shards++
		case ActionDrain:
			if killed[st.Target] {
				return fmt.Errorf("chaos: %s: step %d drains slot %d while it is down", sc.Name, i, st.Target)
			}
		case ActionSlowLink:
			if st.DelayMicros < 0 {
				return fmt.Errorf("chaos: %s: step %d has negative delay", sc.Name, i)
			}
		default:
			return fmt.Errorf("chaos: %s: step %d has unknown action %q", sc.Name, i, st.Action)
		}
	}
	if sc.Invariants.MaxUnavailable < 0 || sc.Invariants.MaxUnavailable > 1 {
		return fmt.Errorf("chaos: %s: max_unavailable outside [0,1]", sc.Name)
	}
	if sc.Invariants.MaxWriteUnavailable < 0 || sc.Invariants.MaxWriteUnavailable > 1 {
		return fmt.Errorf("chaos: %s: max_write_unavailable outside [0,1]", sc.Name)
	}
	return nil
}
