package chaos

import "sort"

// builtins maps name → constructor; constructors return a fresh value so
// callers can mutate (e.g. rescale the workload) without aliasing.
var builtins = map[string]func() *Scenario{
	"rolling-restart":        RollingRestart,
	"mutate-rolling-restart": MutateRollingRestart,
	"netsplit":               Netsplit,
	"kill9":                  Kill9,
	"slowlink":               SlowLink,
	"scaleout":               ScaleOut,
}

// Builtin returns the named built-in scenario (nil when unknown).
func Builtin(name string) *Scenario {
	if mk, ok := builtins[name]; ok {
		return mk()
	}
	return nil
}

// BuiltinNames lists the built-in scenario names, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RollingRestart is the acceptance scenario: every shard of a durable
// R=2 tier is killed and restarted in sequence under load. Nothing may
// fail, goodput must hold at 70% of control, and each warm restart's
// re-replication must stay under 10% of a full shard copy.
func RollingRestart() *Scenario {
	return &Scenario{
		Name:        "rolling-restart",
		Description: "kill -9 and restart every durable shard in sequence under load; warm WAL recovery keeps re-replication to a delta",
		Processors:  3, StorageServers: 3, StorageReplicas: 2,
		Durable: true, Nodes: 500, Queries: 900, Seed: 1,
		Steps: []Step{
			{At: 0.15, Action: ActionKill, Target: 0},
			{At: 0.30, Action: ActionRestart, Target: 0},
			{At: 0.45, Action: ActionKill, Target: 1},
			{At: 0.60, Action: ActionRestart, Target: 1},
			{At: 0.70, Action: ActionKill, Target: 2},
			{At: 0.85, Action: ActionRestart, Target: 2},
		},
		Invariants: Invariants{
			GoodputFloor:      0.70,
			MaxUnavailable:    0,
			RecoveryWithin:    50,
			MaxRejoinFraction: 0.10,
		},
	}
}

// MutateRollingRestart is the rolling restart under a sustained online
// write stream: every third query is followed by a graph write while each
// durable shard of an R=2 tier is killed and restarted in sequence. Reads
// never fail and never answer wrongly; writes touching a down shard fail
// unacked (the write-all ack is the loss-proofing) and must heal by
// idempotent retry after recovery; the post-run read-back proves zero
// lost acked writes and zero resurrections past a tombstone.
func MutateRollingRestart() *Scenario {
	return &Scenario{
		Name:        "mutate-rolling-restart",
		Description: "sustained online writes while every durable shard is killed and restarted in sequence; zero lost acked writes, zero wrong answers, tombstones stay dead",
		Processors:  3, StorageServers: 3, StorageReplicas: 2,
		Durable: true, Nodes: 500, Queries: 900, Seed: 6, MutateEvery: 3,
		Steps: []Step{
			{At: 0.15, Action: ActionKill, Target: 0},
			{At: 0.30, Action: ActionRestart, Target: 0},
			{At: 0.45, Action: ActionKill, Target: 1},
			{At: 0.60, Action: ActionRestart, Target: 1},
			{At: 0.70, Action: ActionKill, Target: 2},
			{At: 0.85, Action: ActionRestart, Target: 2},
		},
		Invariants: Invariants{
			GoodputFloor:   0.60,
			MaxUnavailable: 0,
			RecoveryWithin: 50,
			// With R=2 over 3 shards, each kill window blocks the write-all
			// ack for 2/3 of keys; three windows cover ~45% of the run.
			MaxWriteUnavailable: 0.60,
		},
	}
}

// Netsplit partitions the sole replica of half the key space: queries
// needing the parted shard fail with the typed unavailable error (never
// a wrong answer), and service recovers promptly at heal.
func Netsplit() *Scenario {
	return &Scenario{
		Name:        "netsplit",
		Description: "partition an unreplicated shard mid-load: typed unavailability, zero wrong answers, prompt recovery at heal",
		Processors:  2, StorageServers: 2, StorageReplicas: 1,
		Nodes: 400, Queries: 600, Seed: 2,
		Steps: []Step{
			{At: 0.30, Action: ActionNetsplit, Target: 1},
			{At: 0.70, Action: ActionHeal, Target: 1},
		},
		Invariants: Invariants{
			MaxUnavailable: 0.75,
			RecoveryWithin: 50,
		},
	}
}

// Kill9 crashes one durable shard and restarts it warm.
func Kill9() *Scenario {
	return &Scenario{
		Name:        "kill9",
		Description: "crash one durable shard, restart it over its WAL: zero lost queries, bounded re-replication",
		Processors:  2, StorageServers: 2, StorageReplicas: 2,
		Durable: true, Nodes: 400, Queries: 600, Seed: 3,
		Steps: []Step{
			{At: 0.40, Action: ActionKill, Target: 0},
			{At: 0.70, Action: ActionRestart, Target: 0},
		},
		Invariants: Invariants{
			GoodputFloor:      0.70,
			MaxUnavailable:    0,
			RecoveryWithin:    50,
			MaxRejoinFraction: 0.10,
		},
	}
}

// SlowLink degrades one shard's link mid-run and clears it: everything
// still answers correctly, only latency suffers.
func SlowLink() *Scenario {
	return &Scenario{
		Name:        "slowlink",
		Description: "inject per-request latency on one shard's link, then clear it: zero failures, goodput dips but holds a floor",
		Processors:  2, StorageServers: 2, StorageReplicas: 2,
		Nodes: 400, Queries: 600, Seed: 4,
		Steps: []Step{
			{At: 0.30, Action: ActionSlowLink, Target: 0, DelayMicros: 50},
			{At: 0.70, Action: ActionSlowLink, Target: 0, DelayMicros: 0},
		},
		Invariants: Invariants{
			GoodputFloor:   0.25,
			MaxUnavailable: 0,
		},
	}
}

// ScaleOut grows the tier by one shard and then drains an original one
// under load — the elastic path as a chaos scenario.
func ScaleOut() *Scenario {
	return &Scenario{
		Name:        "scaleout",
		Description: "add a shard, then drain an original one, all under load: membership churn with zero failures",
		Processors:  2, StorageServers: 2, StorageReplicas: 2,
		Durable: true, Nodes: 400, Queries: 600, Seed: 5,
		Steps: []Step{
			{At: 0.30, Action: ActionAdd},
			{At: 0.60, Action: ActionDrain, Target: 0},
		},
		Invariants: Invariants{
			GoodputFloor:   0.50,
			MaxUnavailable: 0,
		},
	}
}
