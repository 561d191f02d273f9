package experiments

import (
	"fmt"

	"repro/internal/chaos"
)

func init() {
	register("chaos", "design (§1)", "run the built-in chaos scenarios on the virtual-time engine: scripted kills, splits, slow links and scale events against the invariants", runChaos)
}

// runChaos executes every built-in chaos scenario on the simnet harness,
// one row per run. Unlike the other experiments this one is pass/fail
// rather than a measurement sweep: the scenarios carry their own
// invariants (zero wrong answers, goodput floors, recovery deadlines,
// bounded re-replication), and any violation fails the experiment. Scale
// is ignored — each scenario fixes its own topology and workload so the
// invariant thresholds stay meaningful.
func runChaos(Scale) (Result, error) {
	t := Table{Columns: columns("scenario", "verdict", "answered", "wrong", "unavail", "goodput-ratio", "max-recovery", "rejoin%|%.1f")}
	res := Result{Foot: []string{
		"each scenario scripts faults at workload-progress points and checks its own",
		"invariants; rejoin% is a warm restart's re-replication relative to a full",
		"shard copy (the WAL+snapshot recovery keeps it to the crash-window delta)",
	}}
	violations := 0
	for _, name := range chaos.BuiltinNames() {
		run, err := chaos.Run(chaos.Builtin(name), func() chaos.Harness { return chaos.NewSimHarness() })
		if err != nil {
			return Result{}, fmt.Errorf("chaos %s: %w", name, err)
		}
		verdict := "PASS"
		if !run.Passed() {
			verdict = "FAIL"
			violations += len(run.Violations)
		}
		var rec, rejoin any = "-", "-"
		if run.MaxRecovery >= 0 {
			rec = run.MaxRecovery
		}
		if run.RejoinFraction >= 0 {
			rejoin = 100 * run.RejoinFraction
		}
		t.Rows = append(t.Rows, []any{name, verdict, fmt.Sprintf("%d/%d", run.Answered, run.Total),
			run.Wrong, run.Unavailable, run.GoodputRatio, rec, rejoin})
		for _, v := range run.Violations {
			res.Head = append(res.Head, fmt.Sprintf("  %s VIOLATION: %s", name, v))
		}
	}
	res.Tables = []Table{t}
	if violations > 0 {
		return res, fmt.Errorf("%d invariant violation(s) across the chaos scenarios", violations)
	}
	return res, nil
}
