package chaos

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// StepEvent records one fired step: the query index it fired at and,
// for restart/heal steps, how many queries passed before the first
// subsequent success (-1 = no success followed).
type StepEvent struct {
	Step     Step
	Index    int
	Recovery int
}

// Result is one scenario execution on one harness.
type Result struct {
	Scenario string
	Harness  string

	// Skipped is set when the harness cannot inject one of the
	// scenario's actions; nothing was run.
	Skipped    bool
	SkipReason string

	Total       int // queries submitted in the fault run
	Answered    int // answered correctly
	Wrong       int // answered differently from the oracle
	Unavailable int // failed with the typed unavailable error

	// ControlGoodput and Goodput are answered queries per second of
	// harness time (virtual on sim, wall on live) for the fault-free
	// control run and the fault run; GoodputRatio is their quotient.
	ControlGoodput float64
	Goodput        float64
	GoodputRatio   float64
	// wallClock is set when the harness clock is the wall clock: the
	// ratio is then reported only, GoodputFloor is not enforced.
	wallClock bool

	// Writes is the size of the scenario's write script (0 when
	// MutateEvery is off); WritesAcked how many acked first try during
	// the fault run; WritesHealed how many initially-unacked writes the
	// settle phase landed by idempotent retry; WriteProbes how many
	// read-back queries verified the written state afterwards.
	Writes       int
	WritesAcked  int
	WritesHealed int
	WriteProbes  int

	// MaxRecovery is the worst queries-to-first-success after any
	// restart or heal step (-1 when none fired).
	MaxRecovery int
	// RejoinFraction is the worst restart's re-replication bytes as a
	// fraction of the shard's pre-kill bytes (-1 when the harness cannot
	// observe repair traffic or no restart fired).
	RejoinFraction float64

	Steps      []StepEvent
	Violations []string
}

// Passed reports whether the run completed with no invariant violations
// (a skipped run passes vacuously — it asserts nothing).
func (r *Result) Passed() bool { return len(r.Violations) == 0 }

// String renders a one-scenario summary block.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %-16s harness %-4s ", r.Scenario, r.Harness)
	if r.Skipped {
		fmt.Fprintf(&b, "SKIPPED (%s)\n", r.SkipReason)
		return b.String()
	}
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s\n", verdict)
	fmt.Fprintf(&b, "  queries %d answered %d wrong %d unavailable %d\n", r.Total, r.Answered, r.Wrong, r.Unavailable)
	fmt.Fprintf(&b, "  goodput %.0f/s vs control %.0f/s (ratio %.2f", r.Goodput, r.ControlGoodput, r.GoodputRatio)
	if r.wallClock {
		b.WriteString(", wall clock: reported, not enforced")
	}
	b.WriteString(")\n")
	if r.Writes > 0 {
		fmt.Fprintf(&b, "  writes %d acked %d healed-on-retry %d, read-back probes %d\n",
			r.Writes, r.WritesAcked, r.WritesHealed, r.WriteProbes)
	}
	if r.MaxRecovery >= 0 {
		fmt.Fprintf(&b, "  max recovery %d queries\n", r.MaxRecovery)
	}
	if r.RejoinFraction >= 0 {
		fmt.Fprintf(&b, "  worst rejoin re-replication %.1f%% of shard\n", 100*r.RejoinFraction)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	return b.String()
}

// Workload materialises a scenario's deterministic graph and query
// workload with the oracle answers (shared by the control and fault
// runs, and exported so callers can reuse it across harnesses).
func Workload(sc *Scenario) (*graph.Graph, []query.Query, []query.Result) {
	g := gen.LocalWeb(sc.Nodes, 8, 40, 0.01, sc.Seed)
	per := 10
	qs := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots:       (sc.Queries + per - 1) / per,
		QueriesPerHotspot: per,
		R:                 2,
		H:                 2,
		Seed:              sc.Seed,
	})
	if len(qs) > sc.Queries {
		qs = qs[:sc.Queries]
	}
	want := make([]query.Result, len(qs))
	for i, q := range qs {
		want[i] = query.Answer(g, q)
	}
	return g, qs, want
}

// The settle phase retries each unacked write this often before declaring
// it unappliable.
const (
	settleAttempts = 10
	settleBackoff  = 50 * time.Millisecond
)

// writeScript builds a scenario's deterministic online-write stream: a
// chain of fresh nodes (ids above every dataset node, so the query
// workload's precomputed oracle answers are untouched) grown edge by
// edge, with every fifth write removing an earlier chain edge — so the
// stream exercises the create, link and tombstone paths together. The
// writes are unlabeled, and safe to retry after a failed ack: upserts and
// edge adds are idempotent, and a retried remove whose first attempt
// landed reports ErrConflict, which the settle phase reads as landed.
func writeScript(base graph.NodeID, n int) []query.Mutation {
	if n <= 0 {
		return nil
	}
	muts := make([]query.Mutation, 0, n)
	muts = append(muts, query.Mutation{Op: query.MutUpsertNode, Node: base})
	next := base + 1
	for len(muts) < n {
		switch len(muts) % 5 {
		case 0:
			// Tombstone the first edge added in the previous period.
			muts = append(muts, query.Mutation{Op: query.MutRemoveEdge, Node: next - 3, To: next - 2})
		case 1, 3:
			muts = append(muts, query.Mutation{Op: query.MutUpsertNode, Node: next})
		case 2, 4:
			muts = append(muts, query.Mutation{Op: query.MutAddEdge, Node: next - 1, To: next})
			next++
		}
	}
	return muts
}

// applyScript replays the write script onto a plain in-memory graph —
// the reference state the read-back probes compare the deployment to. The
// script is written to apply without conflict on its dataset.
func applyScript(g *graph.Graph, script []query.Mutation) {
	for _, m := range script {
		_ = m.Apply(g)
	}
}

// writeProbes builds the read-back queries for a settled write script: a
// 2-hop neighborhood count from every written node (a lost node record,
// lost edge or resurrected edge shifts a count) plus a 1-hop reachability
// probe across every tombstoned edge (resurrection made explicit).
func writeProbes(script []query.Mutation) []query.Query {
	var probes []query.Query
	seen := map[graph.NodeID]bool{}
	for _, m := range script {
		if m.Op == query.MutUpsertNode && !seen[m.Node] {
			seen[m.Node] = true
			probes = append(probes, query.Query{
				Type: query.NeighborAgg, Node: m.Node, Hops: 2, Dir: graph.Both,
			})
		}
		if m.Op == query.MutRemoveEdge {
			probes = append(probes, query.Query{
				Type: query.Reachability, Node: m.Node, Target: m.To, Hops: 1,
			})
		}
	}
	return probes
}

// Run executes the scenario on a harness built by mk: first a fault-free
// control pass (its goodput is the invariant baseline), then the fault
// pass with every step fired at its scheduled workload-progress point,
// every successful answer checked against the oracle as it streams. The
// returned Result carries measurements plus any invariant violations; a
// non-nil error means the run itself broke (control failures, harness
// setup), not that an invariant was violated.
func Run(sc *Scenario, mk func() Harness) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	probe := mk()
	res := &Result{Scenario: sc.Name, Harness: probe.Name(), wallClock: probe.wallClock(), MaxRecovery: -1, RejoinFraction: -1}
	for _, st := range sc.Steps {
		if !probe.Supports(st.Action) {
			probe.Close()
			res.Skipped = true
			res.SkipReason = fmt.Sprintf("harness cannot inject %q", st.Action)
			return res, nil
		}
	}
	probe.Close()

	g, qs, want := Workload(sc)
	var script []query.Mutation
	if sc.MutateEvery > 0 {
		script = writeScript(g.MaxNodeID()+1, len(qs)/sc.MutateEvery)
	}

	// Control pass: no faults; any failure here (including a write that
	// does not ack on a healthy deployment) is a broken run, not a chaos
	// finding.
	control := mk()
	if err := control.Start(sc, g); err != nil {
		control.Close()
		return nil, fmt.Errorf("chaos: %s: control start: %w", sc.Name, err)
	}
	c0 := control.Elapsed()
	wnext := 0
	for i, q := range qs {
		out, err := control.Execute(q)
		if err != nil {
			control.Close()
			return nil, fmt.Errorf("chaos: %s: control query %d: %w", sc.Name, i, err)
		}
		if out != want[i] {
			control.Close()
			return nil, fmt.Errorf("chaos: %s: control query %d answered wrongly", sc.Name, i)
		}
		if sc.MutateEvery > 0 && (i+1)%sc.MutateEvery == 0 && wnext < len(script) {
			if err := control.Mutate(script[wnext]); err != nil {
				control.Close()
				return nil, fmt.Errorf("chaos: %s: control write %d (%s): %w", sc.Name, wnext, script[wnext].Op, err)
			}
			wnext++
		}
	}
	celapsed := control.Elapsed() - c0
	control.Close()
	if s := celapsed.Seconds(); s > 0 {
		res.ControlGoodput = float64(len(qs)) / s
	}
	// Fault pass.
	h := mk()
	if err := h.Start(sc, g); err != nil {
		h.Close()
		return nil, fmt.Errorf("chaos: %s: start: %w", sc.Name, err)
	}
	defer h.Close()

	res.Total = len(qs)
	res.Writes = len(script)
	acked := make([]bool, len(script))
	wnext = 0
	next := 0                    // next step to fire
	killBytes := map[int]int64{} // shard bytes recorded at each kill
	pending := map[int]int{}     // step index -> query index it fired at (awaiting first success)
	events := make([]StepEvent, 0, len(sc.Steps))
	f0 := h.Elapsed()
	for i, q := range qs {
		for next < len(sc.Steps) && float64(i) >= sc.Steps[next].At*float64(len(qs)) {
			st := sc.Steps[next]
			ev := StepEvent{Step: st, Index: i, Recovery: -1}
			if st.Action == ActionKill {
				killBytes[st.Target] = h.ShardBytes(st.Target)
			}
			var rb0 int64
			if st.Action == ActionRestart {
				rb0 = h.RepairBytes()
			}
			if err := h.Apply(st); err != nil {
				return nil, fmt.Errorf("chaos: %s: step %d (%s slot %d): %w", sc.Name, next, st.Action, st.Target, err)
			}
			if st.Action == ActionRestart {
				if rb1 := h.RepairBytes(); rb0 >= 0 && rb1 >= 0 {
					if base := killBytes[st.Target]; base > 0 {
						frac := float64(rb1-rb0) / float64(base)
						if frac > res.RejoinFraction {
							res.RejoinFraction = frac
						}
					}
				}
			}
			if st.Action == ActionRestart || st.Action == ActionHeal {
				pending[len(events)] = i
			}
			events = append(events, ev)
			next++
		}
		out, err := h.Execute(q)
		switch {
		case err == nil && out == want[i]:
			res.Answered++
			for si, at := range pending {
				rec := i - at
				events[si].Recovery = rec
				if rec > res.MaxRecovery {
					res.MaxRecovery = rec
				}
				delete(pending, si)
			}
		case err == nil:
			res.Wrong++
		case errors.Is(err, query.ErrUnavailable):
			res.Unavailable++
		default:
			return nil, fmt.Errorf("chaos: %s: query %d: %w", sc.Name, i, err)
		}
		if sc.MutateEvery > 0 && (i+1)%sc.MutateEvery == 0 && wnext < len(script) {
			// Any write error is simply an unacked write — during a kill
			// window the write-all ack cannot be had, and a conflict can
			// cascade from an earlier unacked upsert. The settle phase
			// retries; the invariant bounds how many fail here.
			if err := h.Mutate(script[wnext]); err == nil {
				acked[wnext] = true
				res.WritesAcked++
			}
			wnext++
		}
	}
	elapsed := h.Elapsed() - f0
	if s := elapsed.Seconds(); s > 0 {
		res.Goodput = float64(res.Answered) / s
	}
	if res.ControlGoodput > 0 {
		res.GoodputRatio = res.Goodput / res.ControlGoodput
	}
	res.Steps = events
	var writeViol []string
	if len(script) > 0 {
		writeViol = settleAndVerify(h, res, script, acked, sc)
	}
	res.Violations = append(checkInvariants(sc, res, pending), writeViol...)
	return res, nil
}

// settleAndVerify closes out a mutation scenario after the workload: it
// retries every unacked write in script order until it lands (idempotent
// retry is the write path's documented recovery; a retried remove-edge
// whose first attempt landed reports ErrConflict, which counts as
// landed), then reads the whole written state back through the
// deployment and compares it against the fully applied script. Any write
// that cannot settle, any read-back disagreement (a lost acked write, or
// a tombstoned edge that resurrected across a restart) and any probe
// that errors is a violation.
func settleAndVerify(h Harness, res *Result, script []query.Mutation, acked []bool, sc *Scenario) []string {
	var v []string
	for w, m := range script {
		if acked[w] {
			continue
		}
		var err error
		for attempt := 0; attempt < settleAttempts; attempt++ {
			if err = h.Mutate(m); err == nil {
				break
			}
			if m.Op == query.MutRemoveEdge && errors.Is(err, query.ErrConflict) {
				err = nil // the pre-settle attempt landed before failing its ack
				break
			}
			time.Sleep(settleBackoff)
		}
		if err != nil {
			v = append(v, fmt.Sprintf("write %d (%s %d->%d) would not settle after recovery: %v",
				w, m.Op, m.Node, m.To, err))
			continue
		}
		res.WritesHealed++
	}
	if len(v) > 0 {
		// The reference state assumes a fully applied script; with writes
		// that never landed, read-back mismatches would double-report.
		return v
	}
	ge, _, _ := Workload(sc)
	applyScript(ge, script)
	probes := writeProbes(script)
	res.WriteProbes = len(probes)
	mismatches, errored := 0, 0
	for _, pq := range probes {
		out, err := h.Execute(pq)
		if err != nil {
			errored++
			continue
		}
		if out != query.Answer(ge, pq) {
			mismatches++
		}
	}
	if errored > 0 {
		v = append(v, fmt.Sprintf("%d of %d read-back probes errored after recovery", errored, len(probes)))
	}
	if mismatches > 0 {
		v = append(v, fmt.Sprintf("%d of %d read-back probes disagree with the applied write script (lost acked write or resurrected tombstone)", mismatches, len(probes)))
	}
	return v
}

// checkInvariants evaluates the scenario's invariants against the fault
// run's measurements. pending holds restart/heal steps never followed by
// a success — an unconditional recovery failure when non-empty.
func checkInvariants(sc *Scenario, r *Result, pending map[int]int) []string {
	var v []string
	inv := sc.Invariants
	if r.Wrong > 0 {
		v = append(v, fmt.Sprintf("%d wrong answers (zero tolerated)", r.Wrong))
	}
	if r.Total > 0 {
		if frac := float64(r.Unavailable) / float64(r.Total); frac > inv.MaxUnavailable {
			v = append(v, fmt.Sprintf("%.1f%% of queries unavailable, max %.1f%%", 100*frac, 100*inv.MaxUnavailable))
		}
	}
	if inv.GoodputFloor > 0 && !r.wallClock && r.GoodputRatio < inv.GoodputFloor {
		v = append(v, fmt.Sprintf("goodput ratio %.2f below floor %.2f", r.GoodputRatio, inv.GoodputFloor))
	}
	if len(pending) > 0 {
		v = append(v, fmt.Sprintf("%d restart/heal step(s) never followed by a successful query", len(pending)))
	}
	if inv.RecoveryWithin > 0 && r.MaxRecovery > inv.RecoveryWithin {
		v = append(v, fmt.Sprintf("recovery took %d queries, deadline %d", r.MaxRecovery, inv.RecoveryWithin))
	}
	if inv.MaxRejoinFraction > 0 && r.RejoinFraction >= 0 && r.RejoinFraction > inv.MaxRejoinFraction {
		v = append(v, fmt.Sprintf("restart re-replicated %.1f%% of the shard, max %.1f%%", 100*r.RejoinFraction, 100*inv.MaxRejoinFraction))
	}
	if r.Writes > 0 {
		if frac := float64(r.Writes-r.WritesAcked) / float64(r.Writes); frac > inv.MaxWriteUnavailable {
			v = append(v, fmt.Sprintf("%.1f%% of writes failed to ack during the run, max %.1f%%", 100*frac, 100*inv.MaxWriteUnavailable))
		}
	}
	return v
}
