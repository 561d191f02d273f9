package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/query"
)

func init() {
	register(Experiment{
		ID: "patterns", Paper: "beyond the paper (multi-anchor queries)",
		Desc: "mixed multi-anchor workload (PatternMatch + BoundedReach + the classic three): per-policy goodput and subtask fan-out, per-partition visit budget asserted",
		Run:  runPatterns,
	})
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

// patternsMeasure is one policy's outcome on the mixed multi-anchor run.
type patternsMeasure struct {
	GoodputQPS float64 `json:"goodput_qps"`
	HitRate    float64 `json:"hit_rate"`
	Subtasks   int64   `json:"subtasks"`
	Waves      int64   `json:"waves"`
	MaxVisited int     `json:"max_visited"`
}

// patternsReport is the machine-readable artifact (BENCH_patterns.json).
type patternsReport struct {
	Experiment      string                     `json:"experiment"`
	Nodes           int                        `json:"nodes"`
	Queries         int                        `json:"queries"`
	MultiAnchor     int                        `json:"multi_anchor_queries"`
	VisitBudget     int                        `json:"visit_budget"`
	Cells           map[string]patternsMeasure `json:"cells"`
	BudgetRespected bool                       `json:"budget_respected"`
}

// runPatterns compares the routing policies on a mixed workload where two
// of five queries are multi-anchor: PatternMatch fans each template out as
// per-anchor candidate subtasks joined at the session, and BoundedReach
// composes budget-truncated partial answers across waves. Multi-anchor
// queries execute through sessions (they need wave composition, which the
// one-shot RunWorkload path deliberately rejects), every answer is checked
// against the in-memory oracle as it streams, and the per-partition visit
// budget is asserted structurally: the largest per-subtask visit count any
// policy observed must stay within the budget.
func runPatterns(w io.Writer, sc Scale) error {
	rep, err := patternsRun(w, sc)
	if err != nil {
		return err
	}
	return writeBenchJSON(w, "patterns", rep)
}

// patternsRun executes the per-policy cells and returns the
// machine-readable report (the runner wraps it; tests assert on it).
func patternsRun(w io.Writer, sc Scale) (patternsReport, error) {
	e, _ := Get("patterns")
	header(w, e)
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return patternsReport{}, err
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

	results := make([]patternsMeasure, len(patternsPolicies))
	cells := make([]func() error, len(patternsPolicies))
	for i, policy := range patternsPolicies {
		i, policy := i, policy
		cells[i] = func() error {
			m, err := runPatternsCell(g, sc, policy, qs)
			if err != nil {
				return fmt.Errorf("%v: %w", policy, err)
			}
			results[i] = m
			return nil
		}
	}
	if err := runCells(cells); err != nil {
		return patternsReport{}, err
	}

	t := metrics.NewTable("policy", "goodput q/s", "hit%", "subtasks", "waves", "max-visited")
	budgetOK := true
	cellMap := make(map[string]patternsMeasure, len(patternsPolicies))
	for i, policy := range patternsPolicies {
		m := results[i]
		t.AddRow(policyLabel(policy),
			fmt.Sprintf("%.0f", m.GoodputQPS),
			fmt.Sprintf("%.1f", 100*m.HitRate),
			m.Subtasks, m.Waves, m.MaxVisited)
		if m.MaxVisited > patternsBudget {
			budgetOK = false
		}
		cellMap[policyLabel(policy)] = m
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "%d of %d queries are multi-anchor; every BoundedReach subtask is capped at\n", multi, len(qs))
	fmt.Fprintf(w, "%d node visits (max-visited is the largest any subtask used — a value above\n", patternsBudget)
	fmt.Fprintln(w, "the budget is a bug, not a measurement). waves > multi-anchor queries shows")
	fmt.Fprintln(w, "partial answers genuinely relaunching; the smart schemes route each anchor's")
	fmt.Fprintln(w, "subtask to the processor already holding its neighbourhood")
	if !budgetOK {
		return patternsReport{}, fmt.Errorf("a subtask exceeded the per-partition visit budget of %d", patternsBudget)
	}

	return patternsReport{
		Experiment:      "patterns",
		Nodes:           g.NumNodes(),
		Queries:         len(qs),
		MultiAnchor:     multi,
		VisitBudget:     patternsBudget,
		Cells:           cellMap,
		BudgetRespected: budgetOK,
	}, nil
}

// runPatternsCell runs the mixed workload on one policy's session,
// verifying every answer against the oracle.
func runPatternsCell(g *graphT, sc Scale, policy core.Policy, qs []queryT) (patternsMeasure, error) {
	sys, err := core.NewSystem(g, sysConfig(policy, sc))
	if err != nil {
		return patternsMeasure{}, err
	}
	ses, err := sys.NewSession()
	if err != nil {
		return patternsMeasure{}, err
	}
	t0 := ses.Now()
	for _, q := range qs {
		res, _, err := ses.Execute(q)
		if err != nil {
			return patternsMeasure{}, err
		}
		if res != answer(g, q) {
			return patternsMeasure{}, fmt.Errorf("%v query on node %d answered wrongly", q.Type, q.Node)
		}
	}
	elapsed := ses.Now() - t0
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	var m patternsMeasure
	m.GoodputQPS = float64(len(qs)) / elapsed.Seconds()
	h, miss := ses.Stats()
	if touched := h + miss; touched > 0 {
		m.HitRate = float64(h) / float64(touched)
	}
	m.Subtasks, m.Waves, m.MaxVisited = ses.MultiStats()
	if m.Subtasks == 0 || m.Waves == 0 {
		return m, fmt.Errorf("no multi-anchor subtasks executed — the mix is not reaching the new path")
	}
	return m, nil
}
