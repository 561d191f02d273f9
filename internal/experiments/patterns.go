package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/query"
)

func init() {
	register("patterns", "beyond the paper (multi-anchor queries)", "mixed multi-anchor workload (PatternMatch + BoundedReach + the classic three): per-policy goodput and subtask fan-out, per-partition visit budget asserted", runPatterns)
}

// patternsBudget is the per-partition visit budget every BoundedReach
// query in the mix carries. Small enough that budgeted subtasks genuinely
// truncate and relaunch (multi-wave composition), large enough that most
// targets resolve within a few waves.
const patternsBudget = 8

// patternsPolicies: the hash baselines and the two smart schemes — every
// strategy routes multi-anchor subtasks through the same per-anchor
// default hook, so the comparison isolates what anchor locality is worth.
var patternsPolicies = []core.Policy{core.PolicyHash, core.PolicyStableHash, core.PolicyLandmark, core.PolicyEmbed}

// runPatterns compares the routing policies on a mixed workload where two
// of five queries are multi-anchor: PatternMatch fans each template out as
// per-anchor candidate subtasks joined at the session, and BoundedReach
// composes budget-truncated partial answers across waves. Multi-anchor
// queries execute through Session.Execute (they need wave composition;
// RunWorkload's closed-loop driver admits single-destination queries only),
// every answer is checked against the in-memory oracle as it streams, and
// the per-partition visit budget is asserted structurally: the largest
// per-subtask visit count any policy observed must stay within the budget.
func runPatterns(sc Scale) (Result, error) {
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return Result{}, err
	}
	qs := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots:       sc.Hotspots,
		QueriesPerHotspot: sc.PerHotspot,
		R:                 2,
		H:                 2,
		Types:             query.MixedTypes,
		VisitBudget:       patternsBudget,
		Seed:              sc.Seed + 1,
	})
	multi := 0
	for _, q := range qs {
		if q.Type.MultiAnchor() {
			multi++
		}
	}
	rows, err := policyRows(patternsPolicies, func(policy core.Policy) ([]any, error) {
		return runPatternsCell(g, sc, policy, qs)
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Tables: []Table{{
			Columns: columns("policy", "goodput q/s|%.0f", "hit%|%.1f", "subtasks", "waves", "max-visited"),
			Rows:    rows,
		}},
		Foot: []string{
			fmt.Sprintf("%d of %d queries are multi-anchor; every BoundedReach subtask is capped at", multi, len(qs)),
			fmt.Sprintf("%d node visits (max-visited is the largest any subtask used — a value above", patternsBudget),
			"the budget is a bug, not a measurement). waves > multi-anchor queries shows",
			"partial answers genuinely relaunching; the smart schemes route each anchor's",
			"subtask to the processor already holding its neighbourhood",
		},
	}, nil
}

// runPatternsCell runs the mixed workload on one policy's session,
// verifying every answer against the oracle. Its row: goodput, hit%,
// subtasks, waves and the largest per-subtask visit count.
func runPatternsCell(g *graphT, sc Scale, policy core.Policy, qs []queryT) ([]any, error) {
	sys, err := core.NewSystem(g, sysConfig(policy, sc))
	if err != nil {
		return nil, err
	}
	ses, err := sys.NewSession()
	if err != nil {
		return nil, err
	}
	t0 := ses.Now()
	for _, q := range qs {
		res, _, err := ses.Execute(q)
		if err != nil {
			return nil, err
		}
		if res != answer(g, q) {
			return nil, fmt.Errorf("%v query on node %d answered wrongly", q.Type, q.Node)
		}
	}
	subtasks, waves, maxVisited := ses.MultiStats()
	if subtasks == 0 || waves == 0 {
		return nil, fmt.Errorf("no multi-anchor subtasks executed — the mix is not reaching the new path")
	}
	if maxVisited > patternsBudget {
		return nil, fmt.Errorf("a subtask visited %d nodes, over the per-partition budget of %d", maxVisited, patternsBudget)
	}
	qps, hit := sessionRates(ses, len(qs), t0)
	return []any{qps, 100 * hit, subtasks, waves, maxVisited}, nil
}

// sessionRates is the goodput and the cache hit rate of a session that has
// run n queries since t0.
func sessionRates(ses *core.Session, n int, t0 time.Duration) (qps, hit float64) {
	elapsed := ses.Now() - t0
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	h, miss := ses.Stats()
	if touched := h + miss; touched > 0 {
		hit = float64(h) / float64(touched)
	}
	return float64(n) / elapsed.Seconds(), hit
}
