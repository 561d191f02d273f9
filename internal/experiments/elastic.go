package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/query"
)

// answer is the in-memory oracle (shared with the verification tests).
func answer(g *graphT, q queryT) query.Result { return query.Answer(g, q) }

func init() {
	register("elastic", "design (§1)", "live scale-out/scale-in 4→8→4 mid-workload: cache-hit dip and recovery per policy", runElastic)
}

// elasticPolicies: the modulo-hash baseline, its stable-remap replacement,
// and the two smart schemes — the policies whose cache behaviour under a
// topology change differs most.
var elasticPolicies = []core.Policy{core.PolicyHash, core.PolicyStableHash, core.PolicyLandmark, core.PolicyEmbed}

// elasticRow is one policy's measurements across the 4→8→4 run, paired
// with a static-topology control session that executes the identical
// query sequence — the dip is the gap between the two at the same window.
type elasticRow struct {
	warm   float64 // control: hit rate over a replay window with no topology change
	outDip float64 // first window after scaling 4→8
	outRec float64 // last window of the 8-processor phase
	inDip  float64 // first window after scaling 8→4
	inRec  float64 // last window of the final 4-processor phase
	epoch  uint64
}

// runElastic exercises the paper's core elasticity claim — processors can
// be added and removed without repartitioning the graph — and measures
// what it costs: the per-policy cache-hit-rate dip right after each
// topology change and how fully it recovers, on one session whose caches
// persist across the transitions. Modulo hashing reshuffles nearly the
// whole node space on a size change, so its dip is the deepest; the
// stable-remap hash moves only ~1/N of the keys; the smart schemes
// re-derive their assignments for the new tier.
func runElastic(sc Scale) (Result, error) {
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return Result{}, err
	}
	qs := workload(g, sc, 2, 2)
	rows, err := policyRows(elasticPolicies, func(policy core.Policy) ([]any, error) {
		r, err := runElasticPolicy(g, sc, policy, qs)
		return []any{100 * r.warm, 100 * r.outDip, 100 * r.outRec, 100 * r.inDip, 100 * r.inRec, r.epoch}, err
	})
	if err != nil {
		return Result{}, err
	}
	t := Table{
		Columns: columns("policy", "warm-hit%|%.1f", "out-dip%|%.1f", "out-rec%|%.1f", "in-dip%|%.1f", "in-rec%|%.1f", "epochs"),
		Rows:    rows,
	}
	return Result{Tables: []Table{t}, Foot: []string{
		"warm-hit% is the static-topology control replaying the same window; the dip is the",
		"gap to it. expected: every policy survives both transitions with exact results;",
		"modulo Hash pays the deepest scale-in dip (a size change remaps almost every node),",
		"StableHash moves only ~1/N of the key space so the original members' caches still",
		"hit after scale-in, and the smart schemes re-derive assignments for the new count",
	}}, nil
}

// runElasticPolicy runs one policy's 4→8→4 cell: warm up on 4 processors,
// scale out to 8 mid-workload, scale back in to 4, measuring the windowed
// cache hit rate right after each transition and at the end of each
// phase. A second, static-topology session on its own system executes the
// identical sequence as the control. Every result is verified against the
// oracle as it streams.
func runElasticPolicy(g *graphT, sc Scale, policy core.Policy, qs []queryT) (elasticRow, error) {
	newSession := func() (*core.System, *core.Session, error) {
		cfg := sysConfig(policy, sc)
		cfg.Processors = 4
		sys, err := core.NewSystem(g, cfg)
		if err != nil {
			return nil, nil, err
		}
		ses, err := sys.NewSession()
		if err != nil {
			return nil, nil, err
		}
		return sys, ses, nil
	}
	sys, ses, err := newSession()
	if err != nil {
		return elasticRow{}, err
	}
	_, control, err := newSession()
	if err != nil {
		return elasticRow{}, err
	}

	// The measurement window is a fifth of the workload; tiny test scales
	// degrade gracefully to single-query windows.
	win := len(qs) / 5
	if win < 1 {
		win = 1
	}
	end := len(qs) - win
	if end < win {
		end = win
	}
	rateOn := func(ses *core.Session, batch []queryT) (float64, error) {
		h0, m0 := ses.Stats()
		for _, q := range batch {
			res, _, err := ses.Execute(q)
			if err != nil {
				return 0, err
			}
			if res != answer(g, q) {
				return 0, fmt.Errorf("query on node %d answered wrongly across an epoch change", q.Node)
			}
		}
		h1, m1 := ses.Stats()
		touched := (h1 - h0) + (m1 - m0)
		if touched == 0 {
			return 0, nil
		}
		return float64(h1-h0) / float64(touched), nil
	}
	both := func(batch []queryT) (float64, error) {
		if _, err := rateOn(control, batch); err != nil {
			return 0, err
		}
		return rateOn(ses, batch)
	}

	var row elasticRow
	// Phase 1: 4 processors, cold start, both sessions identical.
	if _, err := both(qs); err != nil {
		return row, err
	}
	// Scale out 4→8 on the elastic system only, then replay the workload
	// against warm caches. The control's rate over the same first window
	// is the no-change baseline the dip compares against.
	for i := 0; i < 4; i++ {
		sys.AddProcessor()
	}
	if row.warm, err = rateOn(control, qs[:win]); err != nil {
		return row, err
	}
	if row.outDip, err = rateOn(ses, qs[:win]); err != nil {
		return row, err
	}
	if _, err := both(qs[win:end]); err != nil {
		return row, err
	}
	if row.outRec, err = both(qs[end:]); err != nil {
		return row, err
	}
	// Scale back in 8→4: drain the four joined members cleanly.
	for slot := 4; slot < 8; slot++ {
		if err := sys.DrainProcessor(slot); err != nil {
			return row, err
		}
	}
	if row.inDip, err = both(qs[:win]); err != nil {
		return row, err
	}
	if _, err := both(qs[win:end]); err != nil {
		return row, err
	}
	if row.inRec, err = both(qs[end:]); err != nil {
		return row, err
	}
	row.epoch = ses.Snapshot().Epoch
	return row, nil
}
