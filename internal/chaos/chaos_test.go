package chaos

import (
	"context"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/query"
	"repro/internal/rpc"
)

func TestBuiltinScenariosValidateAndRoundTrip(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 5 {
		t.Fatalf("only %d builtins: %v", len(names), names)
	}
	for _, name := range names {
		sc := Builtin(name)
		if sc == nil {
			t.Fatalf("Builtin(%q) = nil", name)
		}
		if sc.Name != name {
			t.Errorf("builtin %q names itself %q", name, sc.Name)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", name, err)
		}
		data, err := sc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("builtin %q does not round-trip: %v", name, err)
		}
		if back.Name != sc.Name || len(back.Steps) != len(sc.Steps) || back.Invariants != sc.Invariants {
			t.Errorf("builtin %q changed across JSON round trip", name)
		}
	}
	if Builtin("no-such-scenario") != nil {
		t.Fatal("unknown builtin resolved")
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{Name: "x", Processors: 1, StorageServers: 2, StorageReplicas: 1, Nodes: 10, Queries: 10}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"no name", func(s *Scenario) { s.Name = "" }},
		{"no processors", func(s *Scenario) { s.Processors = 0 }},
		{"no storage", func(s *Scenario) { s.StorageServers = 0 }},
		{"replicas exceed shards", func(s *Scenario) { s.StorageReplicas = 3 }},
		{"no queries", func(s *Scenario) { s.Queries = 0 }},
		{"unsorted steps", func(s *Scenario) {
			s.Steps = []Step{{At: 0.5, Action: ActionKill}, {At: 0.2, Action: ActionRestart}}
		}},
		{"at out of range", func(s *Scenario) { s.Steps = []Step{{At: 1.0, Action: ActionKill}} }},
		{"target out of range", func(s *Scenario) { s.Steps = []Step{{At: 0.5, Action: ActionKill, Target: 5}} }},
		{"restart without kill", func(s *Scenario) { s.Steps = []Step{{At: 0.5, Action: ActionRestart}} }},
		{"double kill", func(s *Scenario) {
			s.Steps = []Step{{At: 0.2, Action: ActionKill}, {At: 0.5, Action: ActionKill}}
		}},
		{"heal without split", func(s *Scenario) { s.Steps = []Step{{At: 0.5, Action: ActionHeal}} }},
		{"unknown action", func(s *Scenario) { s.Steps = []Step{{At: 0.5, Action: "reboot"}} }},
		{"negative delay", func(s *Scenario) {
			s.Steps = []Step{{At: 0.5, Action: ActionSlowLink, DelayMicros: -1}}
		}},
		{"bad max unavailable", func(s *Scenario) { s.Invariants.MaxUnavailable = 1.5 }},
	}
	for _, c := range cases {
		sc := base()
		c.mut(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scenario invalid: %v", err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not json")); err == nil {
		t.Fatal("garbage parsed")
	}
	if _, err := Parse([]byte(`{"name":""}`)); err == nil {
		t.Fatal("invalid scenario parsed")
	}
}

// runSim runs a builtin on the simnet harness and fails the test on any
// violation.
func runSim(t *testing.T, name string) *Result {
	t.Helper()
	sc := Builtin(name)
	if sc == nil {
		t.Fatalf("no builtin %q", name)
	}
	res, err := Run(sc, func() Harness { return NewSimHarness() })
	if err != nil {
		t.Fatalf("%s on sim: %v", name, err)
	}
	if res.Skipped {
		t.Fatalf("%s skipped on sim: %s", name, res.SkipReason)
	}
	if !res.Passed() {
		t.Fatalf("%s on sim violated invariants:\n%s", name, res.String())
	}
	return res
}

// TestRollingRestartSim is the acceptance scenario on the virtual-time
// engine: zero wrong answers, zero unavailability, goodput >= 70% of
// control, and every warm restart re-replicating < 10% of a full shard.
func TestRollingRestartSim(t *testing.T) {
	res := runSim(t, "rolling-restart")
	if res.Answered != res.Total {
		t.Fatalf("answered %d of %d", res.Answered, res.Total)
	}
	if res.RejoinFraction < 0 {
		t.Fatal("sim harness did not measure the rejoin fraction")
	}
	if res.RejoinFraction >= 0.10 {
		t.Fatalf("warm rejoin re-replicated %.1f%% of the shard", 100*res.RejoinFraction)
	}
	if res.MaxRecovery < 0 {
		t.Fatal("no recovery was measured across three restarts")
	}
}

// TestRollingRestartLive is the acceptance scenario against real TCP
// daemons: every shard killed (listener closed, connections severed) and
// restarted over its WAL directory, under load, with zero wrong answers
// and zero lost queries.
func TestRollingRestartLive(t *testing.T) {
	sc := Builtin("rolling-restart")
	sc.Invariants.MaxRejoinFraction = 0
	res, err := Run(sc, func() Harness { return NewLiveHarness() })
	if err != nil {
		t.Fatalf("rolling-restart on live: %v", err)
	}
	if res.Skipped {
		t.Fatalf("rolling-restart skipped on live: %s", res.SkipReason)
	}
	if !res.Passed() {
		t.Fatalf("rolling-restart on live violated invariants:\n%s", res.String())
	}
	if res.Wrong != 0 || res.Unavailable != 0 {
		t.Fatalf("live rolling restart: %d wrong, %d unavailable", res.Wrong, res.Unavailable)
	}
	if res.Answered != res.Total {
		t.Fatalf("answered %d of %d", res.Answered, res.Total)
	}
}

// TestMutateRollingRestartSim runs the write-stream acceptance scenario
// on the virtual-time engine: sustained mutations through rolling durable
// restarts, with the settle + read-back machinery proving no acked write
// was lost and no tombstoned edge resurrected.
func TestMutateRollingRestartSim(t *testing.T) {
	res := runSim(t, "mutate-rolling-restart")
	if res.Writes == 0 {
		t.Fatal("mutation scenario issued no writes")
	}
	if res.WritesAcked == 0 {
		t.Fatal("no write ever acked")
	}
	if res.WriteProbes == 0 {
		t.Fatal("settle phase ran no read-back probes")
	}
	if res.Wrong != 0 {
		t.Fatalf("%d wrong answers under the write stream", res.Wrong)
	}
}

// TestMutateRollingRestartLive is the same scenario against real TCP
// daemons: the router's write-all path under real crash windows. Writes
// that land on a killed shard fail unacked and must heal by retry; the
// read-back probes then hold the zero-lost-acked-writes line.
func TestMutateRollingRestartLive(t *testing.T) {
	res, err := Run(Builtin("mutate-rolling-restart"), func() Harness { return NewLiveHarness() })
	if err != nil {
		t.Fatalf("mutate-rolling-restart on live: %v", err)
	}
	if res.Skipped {
		t.Fatalf("mutate-rolling-restart skipped on live: %s", res.SkipReason)
	}
	if !res.Passed() {
		t.Fatalf("mutate-rolling-restart on live violated invariants:\n%s", res.String())
	}
	if res.Wrong != 0 || res.Unavailable != 0 {
		t.Fatalf("live mutate rolling restart: %d wrong, %d unavailable", res.Wrong, res.Unavailable)
	}
	if res.WriteProbes == 0 {
		t.Fatal("settle phase ran no read-back probes")
	}
}

// TestWriteScriptShape pins the write stream's structure: deterministic,
// node ids strictly above the base, each chain edge removed at most once,
// and every edge's endpoints upserted before the edge itself.
func TestWriteScriptShape(t *testing.T) {
	const base, n = 1000, 57
	script := writeScript(base, n)
	if len(script) != n {
		t.Fatalf("script has %d writes, want %d", len(script), n)
	}
	nodes := map[int]bool{}
	edges := map[[2]int]bool{}
	removed := map[[2]int]bool{}
	for i, m := range script {
		if m.Node < base || (m.To != 0 && m.To < base) {
			t.Fatalf("write %d touches node below base: %+v", i, m)
		}
		switch m.Op {
		case query.MutUpsertNode:
			nodes[int(m.Node)] = true
		case query.MutAddEdge:
			if !nodes[int(m.Node)] || !nodes[int(m.To)] {
				t.Fatalf("write %d adds edge %d->%d before upserting both endpoints", i, m.Node, m.To)
			}
			edges[[2]int{int(m.Node), int(m.To)}] = true
		case query.MutRemoveEdge:
			e := [2]int{int(m.Node), int(m.To)}
			if !edges[e] {
				t.Fatalf("write %d removes edge %d->%d that was never added", i, m.Node, m.To)
			}
			if removed[e] {
				t.Fatalf("write %d removes edge %d->%d twice", i, m.Node, m.To)
			}
			removed[e] = true
		default:
			t.Fatalf("write %d has unknown op %v", i, m.Op)
		}
	}
	if len(removed) == 0 {
		t.Fatal("script tombstones no edges")
	}
	again := writeScript(base, n)
	for i := range script {
		if script[i] != again[i] {
			t.Fatalf("script is not deterministic at write %d", i)
		}
	}
	if writeScript(base, 0) != nil {
		t.Fatal("empty script not nil")
	}
}

// TestLabelledUpsertSameOnBothHarnesses sends one labelled upsert through
// each harness over the same graph: both must store the label id the graph's
// table gives the label, so a labelled write means the same on both — and
// both must report the same routing policy, since both build the scenario's
// deployment from one configuration.
func TestLabelledUpsertSameOnBothHarnesses(t *testing.T) {
	sc := &Scenario{Name: "label", Processors: 1, StorageServers: 2, StorageReplicas: 1, Nodes: 50, Queries: 10, Seed: 3}
	g, _, _ := Workload(sc)
	const node = graph.NodeID(7)
	m := query.Mutation{Op: query.MutUpsertNode, Node: node, Label: "relabelled"}

	sim := NewSimHarness()
	defer sim.Close()
	if err := sim.Start(sc, g); err != nil {
		t.Fatal(err)
	}
	if err := sim.Mutate(m); err != nil {
		t.Fatalf("sim: %v", err)
	}
	val, ok := sim.sys.Store().Get(uint64(node))
	if !ok {
		t.Fatal("sim: node has no record")
	}
	simRec, err := gstore.Decode(node, val)
	if err != nil {
		t.Fatal(err)
	}

	live := NewLiveHarness()
	defer live.Close()
	if err := live.Start(sc, g); err != nil {
		t.Fatal(err)
	}
	if err := live.Mutate(m); err != nil {
		t.Fatalf("live: %v", err)
	}
	sc2, err := rpc.DialStorageReplicated(live.d.StorageAddrs(), sc.StorageReplicas)
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	recs, err := sc2.MultiGet(context.Background(), []graph.NodeID{node})
	if err != nil {
		t.Fatal(err)
	}

	want, ok := g.LabelID(m.Label)
	if !ok || want == graph.NoLabel {
		t.Fatalf("label %q was not interned into the graph's table", m.Label)
	}
	if simRec.NodeLabel != want || recs[node].NodeLabel != want {
		t.Fatalf("stored label id: sim %d, live %d; want %d on both", simRec.NodeLabel, recs[node].NodeLabel, want)
	}

	// One scenario, one deployment: both harnesses route by the same policy.
	liveStats, err := live.client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if simPolicy := sim.ses.Snapshot().Policy; simPolicy != liveStats.Policy {
		t.Fatalf("routing policy: sim %q, live %q", simPolicy, liveStats.Policy)
	}
}

// TestNetsplitSim partitions the sole replica of part of the key space:
// the dip must be typed unavailability (never wrong answers) and service
// must recover promptly after heal.
func TestNetsplitSim(t *testing.T) {
	res := runSim(t, "netsplit")
	if res.Unavailable == 0 {
		t.Fatal("netsplit of an unreplicated shard caused no unavailability — the fault is not landing")
	}
	if res.Wrong != 0 {
		t.Fatalf("%d wrong answers during the split", res.Wrong)
	}
}

func TestKill9Sim(t *testing.T) {
	res := runSim(t, "kill9")
	if res.Unavailable != 0 {
		t.Fatalf("R=2 kill9 lost %d queries", res.Unavailable)
	}
}

func TestSlowLinkSim(t *testing.T) {
	res := runSim(t, "slowlink")
	if res.Answered != res.Total {
		t.Fatalf("slow link lost queries: %d of %d", res.Answered, res.Total)
	}
	if res.GoodputRatio >= 1.0 {
		t.Fatalf("injected latency did not slow the run (ratio %.2f)", res.GoodputRatio)
	}
}

func TestScaleOutSim(t *testing.T) {
	res := runSim(t, "scaleout")
	if res.Unavailable != 0 {
		t.Fatalf("scale events lost %d queries", res.Unavailable)
	}
}

// TestUnsupportedActionSkipsOnLive pins the honesty contract: the live
// harness cannot fake a netsplit, so the scenario reports skipped there
// instead of silently passing.
func TestUnsupportedActionSkipsOnLive(t *testing.T) {
	res, err := Run(Builtin("netsplit"), func() Harness { return NewLiveHarness() })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped {
		t.Fatal("netsplit ran on the live harness")
	}
	if !strings.Contains(res.SkipReason, "netsplit") {
		t.Fatalf("skip reason %q does not name the action", res.SkipReason)
	}
}

// TestInvariantViolationDetected pins that the checker actually fails
// runs: an impossible goodput floor must produce a violation, and the
// Result must render it.
func TestInvariantViolationDetected(t *testing.T) {
	sc := Builtin("kill9")
	sc.Invariants.GoodputFloor = 100 // no fault run beats control 100-fold
	res, err := Run(sc, func() Harness { return NewSimHarness() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("impossible invariant passed")
	}
	out := res.String()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "VIOLATION") {
		t.Fatalf("violation not rendered:\n%s", out)
	}
}

// TestGoodputFloorNeedsVirtualClock pins where the wall-clock decision
// lives: the same below-floor ratio is a violation on a virtual clock and a
// reported figure on the wall clock.
func TestGoodputFloorNeedsVirtualClock(t *testing.T) {
	sc := Builtin("rolling-restart")
	for _, wall := range []bool{false, true} {
		r := &Result{Total: 10, Answered: 10, GoodputRatio: 0.65, wallClock: wall, MaxRecovery: -1, RejoinFraction: -1}
		r.Violations = checkInvariants(sc, r, nil)
		if r.Passed() != wall {
			t.Errorf("wall clock %v: ratio 0.65 under floor %.2f gave violations %v", wall, sc.Invariants.GoodputFloor, r.Violations)
		}
		if strings.Contains(r.String(), "not enforced") != wall {
			t.Errorf("wall clock %v rendered as:\n%s", wall, r.String())
		}
	}
}

// TestResultStringSkipped covers the skip rendering.
func TestResultStringSkipped(t *testing.T) {
	r := &Result{Scenario: "x", Harness: "live", Skipped: true, SkipReason: "because"}
	if out := r.String(); !strings.Contains(out, "SKIPPED") {
		t.Fatalf("skip not rendered: %s", out)
	}
}
