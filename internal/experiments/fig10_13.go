package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/landmark"
	"repro/internal/metrics"
)

func init() {
	register(Experiment{
		ID: "fig10", Paper: "Figure 10",
		Desc: "robustness to graph updates: preprocess on a fraction of the graph, query the whole graph",
		Run:  runFig10,
	})
	register(Experiment{
		ID: "fig11a", Paper: "Figure 11(a)",
		Desc: "throughput vs load factor (query-stealing / locality trade-off)",
		Run:  runFig11a,
	})
	register(Experiment{
		ID: "fig11b", Paper: "Figure 11(b)",
		Desc: "response time vs smoothing parameter alpha (embed EMA)",
		Run:  runFig11b,
	})
	register(Experiment{
		ID: "fig12a", Paper: "Figure 12(a)",
		Desc: "embedding relative error vs dimensionality",
		Run:  runFig12a,
	})
	register(Experiment{
		ID: "fig12b", Paper: "Figure 12(b)",
		Desc: "response time vs embedding dimensionality",
		Run:  runFig12b,
	})
	register(Experiment{
		ID: "fig13a", Paper: "Figure 13(a)",
		Desc: "response time vs number of landmarks",
		Run:  runFig13a,
	})
	register(Experiment{
		ID: "fig13b", Paper: "Figure 13(b)",
		Desc: "response time vs minimum landmark separation",
		Run:  runFig13b,
	})
}

// hashRefCell returns a cell computing the hash-policy reference run that
// most sweep figures plot alongside the smart policies.
func hashRefCell(g *graphT, sc Scale, qs []queryT, dst **core.Report) func() error {
	return func() error {
		rep, err := runPolicy(g, sysConfig(core.PolicyHash, sc), qs)
		if err != nil {
			return err
		}
		*dst = rep
		return nil
	}
}

func runFig10(w io.Writer, sc Scale) error {
	e, _ := Get("fig10")
	header(w, e)
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return err
	}
	qs := workload(g, sc, 2, 2)
	pcts := []int{20, 40, 60, 80, 100}
	policies := []core.Policy{core.PolicyLandmark, core.PolicyEmbed}
	var hashRep *core.Report
	reps, err := policyGrid(len(pcts), policies, func(row int, policy core.Policy) (*core.Report, error) {
		cfg := sysConfig(policy, sc)
		cfg.PreprocessFraction = float64(pcts[row]) / 100
		return runPolicy(g, cfg, qs)
	}, hashRefCell(g, sc, qs, &hashRep))
	if err != nil {
		return err
	}
	t := metrics.NewTable("preprocessed-%", "Landmark", "Embed", "Hash-reference")
	for i, pct := range pcts {
		row := []any{pct}
		for j := range policies {
			row = append(row, reps[i][j].MeanResponse)
		}
		row = append(row, hashRep.MeanResponse)
		t.AddRow(row...)
	}
	fmt.Fprintln(w, "paper: 80% preprocessing costs ~3ms extra; at 20% smart routing degrades to ~hash quality")
	_, err = fmt.Fprint(w, t.String())
	return err
}

func runFig11a(w io.Writer, sc Scale) error {
	e, _ := Get("fig11a")
	header(w, e)
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return err
	}
	qs := workload(g, sc, 2, 2)
	factors := []float64{0.01, 0.1, 1, 10, 20, 100, 1000, 10000}
	policies := []core.Policy{core.PolicyEmbed, core.PolicyLandmark}
	var hashRep *core.Report
	reps, err := policyGrid(len(factors), policies, func(row int, policy core.Policy) (*core.Report, error) {
		cfg := sysConfig(policy, sc)
		cfg.LoadFactor = factors[row]
		return runPolicy(g, cfg, qs)
	}, hashRefCell(g, sc, qs, &hashRep))
	if err != nil {
		return err
	}
	t := metrics.NewTable("load-factor", "Embed", "Landmark", "Hash-reference")
	for i, lf := range factors {
		row := []any{lf}
		for j := range policies {
			row = append(row, reps[i][j].ThroughputQPS)
		}
		row = append(row, hashRep.ThroughputQPS)
		t.AddRow(row...)
	}
	fmt.Fprintln(w, "paper: best throughput at load factor 10-20; tiny values degenerate to least-loaded, huge values ignore load")
	_, err = fmt.Fprint(w, t.String())
	return err
}

func runFig11b(w io.Writer, sc Scale) error {
	e, _ := Get("fig11b")
	header(w, e)
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return err
	}
	qs := workload(g, sc, 2, 2)
	alphas := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	var hashRep *core.Report
	reps := make([]*core.Report, len(alphas))
	cells := []func() error{hashRefCell(g, sc, qs, &hashRep)}
	for i, alpha := range alphas {
		i, alpha := i, alpha
		cells = append(cells, func() error {
			cfg := sysConfig(core.PolicyEmbed, sc)
			cfg.Alpha = alpha
			rep, err := runPolicy(g, cfg, qs)
			if err != nil {
				return err
			}
			reps[i] = rep
			return nil
		})
	}
	if err := runCells(cells); err != nil {
		return err
	}
	t := metrics.NewTable("alpha", "Embed", "Hash-reference")
	for i, alpha := range alphas {
		t.AddRow(alpha, reps[i].MeanResponse, hashRep.MeanResponse)
	}
	fmt.Fprintln(w, "paper: response time lowest for alpha in [0.25, 0.75]")
	_, err = fmt.Fprint(w, t.String())
	return err
}

func runFig12a(w io.Writer, sc Scale) error {
	e, _ := Get("fig12a")
	header(w, e)
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return err
	}
	lms := landmark.Select(g, sc.Landmarks, sc.MinSep)
	idx := landmark.BuildIndex(g, lms, 0)
	dims := []int{2, 5, 10, 15, 20}
	type fitRow struct{ fit, pairErr, iters float64 }
	rows := make([]fitRow, len(dims))
	cells := make([]func() error, len(dims))
	for i, d := range dims {
		i, d := i, d
		cells[i] = func() error {
			emb, err := embed.Build(g, idx, embed.Options{Dimensions: d, Seed: sc.Seed, NM: embed.NMOptions{MaxIter: sc.NMIter}})
			if err != nil {
				return err
			}
			st := emb.BuildStats()
			rows[i] = fitRow{
				fit:     embed.MeasureLandmarkFit(idx, emb, 400, sc.Seed+9),
				pairErr: embed.MeasureRelativeError(g, emb, 300, 2, sc.Seed+9),
				iters:   float64(st.Iterations) / float64(max(st.Placed, 1)),
			}
			return nil
		}
	}
	if err := runCells(cells); err != nil {
		return err
	}
	t := metrics.NewTable("dimensions", "distance-fit-error(Eq4)", "2-hop-pair-error", "iterations-per-node")
	for i, d := range dims {
		t.AddRow(d, fmt.Sprintf("%.3f", rows[i].fit), fmt.Sprintf("%.3f", rows[i].pairErr), fmt.Sprintf("%.1f", rows[i].iters))
	}
	fmt.Fprintln(w, "paper: error decreases with dimensions, saturating around 10")
	_, err = fmt.Fprint(w, t.String())
	return err
}

func runFig12b(w io.Writer, sc Scale) error {
	e, _ := Get("fig12b")
	header(w, e)
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return err
	}
	qs := workload(g, sc, 2, 2)
	dims := []int{2, 5, 10, 15, 20, 25, 30}
	var hashRep *core.Report
	reps := make([]*core.Report, len(dims))
	cells := []func() error{hashRefCell(g, sc, qs, &hashRep)}
	for i, d := range dims {
		i, d := i, d
		cells = append(cells, func() error {
			cfg := sysConfig(core.PolicyEmbed, sc)
			cfg.Dimensions = d
			rep, err := runPolicy(g, cfg, qs)
			if err != nil {
				return err
			}
			reps[i] = rep
			return nil
		})
	}
	if err := runCells(cells); err != nil {
		return err
	}
	t := metrics.NewTable("dimensions", "Embed", "Hash-reference")
	for i, d := range dims {
		t.AddRow(d, reps[i].MeanResponse, hashRep.MeanResponse)
	}
	fmt.Fprintln(w, "paper: minimum response time at ~10 dimensions (accuracy vs routing-cost trade-off)")
	_, err = fmt.Fprint(w, t.String())
	return err
}

func runFig13a(w io.Writer, sc Scale) error {
	e, _ := Get("fig13a")
	header(w, e)
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return err
	}
	qs := workload(g, sc, 2, 2)
	var counts []int
	for _, L := range []int{4, 8, 16, 32, 64, 96, 128} {
		if L <= g.NumNodes()/4 {
			counts = append(counts, L)
		}
	}
	policies := []core.Policy{core.PolicyLandmark, core.PolicyEmbed}
	var hashRep *core.Report
	reps, err := policyGrid(len(counts), policies, func(row int, policy core.Policy) (*core.Report, error) {
		cfg := sysConfig(policy, sc)
		cfg.Landmarks = counts[row]
		return runPolicy(g, cfg, qs)
	}, hashRefCell(g, sc, qs, &hashRep))
	if err != nil {
		return err
	}
	t := metrics.NewTable("landmarks", "Landmark", "Embed", "Hash-reference")
	for i, L := range counts {
		row := []any{L}
		for j := range policies {
			row = append(row, reps[i][j].MeanResponse)
		}
		row = append(row, hashRep.MeanResponse)
		t.AddRow(row...)
	}
	fmt.Fprintln(w, "paper: more landmarks generally help; 96 is the chosen trade-off against preprocessing time")
	_, err = fmt.Fprint(w, t.String())
	return err
}

func runFig13b(w io.Writer, sc Scale) error {
	e, _ := Get("fig13b")
	header(w, e)
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return err
	}
	qs := workload(g, sc, 2, 2)
	seps := []int{1, 2, 3, 4, 5}
	policies := []core.Policy{core.PolicyLandmark, core.PolicyEmbed}
	var hashRep *core.Report
	// On small graphs large separations can leave too few landmarks; a
	// cell failure is reported as an infeasible row, not a runner error,
	// so cells record their error instead of returning it.
	reps := make([][]*core.Report, len(seps))
	cellErrs := make([][]error, len(seps))
	cells := []func() error{hashRefCell(g, sc, qs, &hashRep)}
	for i, sep := range seps {
		reps[i] = make([]*core.Report, len(policies))
		cellErrs[i] = make([]error, len(policies))
		for j, policy := range policies {
			i, j, sep, policy := i, j, sep, policy
			cells = append(cells, func() error {
				cfg := sysConfig(policy, sc)
				cfg.MinSeparation = sep
				reps[i][j], cellErrs[i][j] = runPolicy(g, cfg, qs)
				return nil
			})
		}
	}
	if err := runCells(cells); err != nil {
		return err
	}
	t := metrics.NewTable("min-separation(hops)", "Landmark", "Embed", "Hash-reference")
	for i, sep := range seps {
		row := []any{sep}
		feasible := true
		for j := range policies {
			if cellErrs[i][j] != nil {
				row = append(row, "n/a")
				feasible = false
				continue
			}
			row = append(row, reps[i][j].MeanResponse)
		}
		row = append(row, hashRep.MeanResponse)
		t.AddRow(row...)
		if !feasible && sep > sc.MinSep {
			break
		}
	}
	fmt.Fprintln(w, "paper: separation has little influence (best at 3-4 hops)")
	_, err = fmt.Fprint(w, t.String())
	return err
}
