package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	baselinePath = "bench/baseline.json"
	// A baseline is two acceptance sets of this many runs per workload,
	// each run on its own seed; -compare re-measures compareRuns runs.
	baselineSets = 2
	baselineRuns = 10
	compareRuns  = 5
)

// timings are the issue's four end-to-end timings, demoted to client.*
// layer metrics because they do not repeat within a tenth on the sandbox
// (see endToEnd). The baseline and -compare still carry them, judged
// against that tenth, so that a speed claim has its table: where the
// spread is wider than the bound the verdict is "unresolved".
var timings = []metricDef{
	{"client.qps", "op/s", "higher", 0.10},
	{"client.lat_p50_ms", "ms", "lower", 0.10},
	{"client.lat_p99_ms", "ms", "lower", 0.10},
	{"client.cpu_us_per_op", "us", "lower", 0.10},
}

// compared lists what the baseline holds and -compare judges.
func compared() []metricDef { return append(append([]metricDef(nil), endToEnd...), timings...) }

// validName is the generator verdict of a run's open-loop phase, 1 or 0.
// The baseline holds it beside the metrics, and a set with a disqualified
// phase in it cannot judge the open-loop latencies.
const validName = "client.open_loop_valid"

var openLoop = map[string]bool{"client.lat_p50_ms": true, "client.lat_p99_ms": true}

func allValid(xs []float64) bool {
	for _, x := range xs {
		if x != 1 {
			return false
		}
	}
	return len(xs) > 0
}

// summary is one metric over one set of runs: every run's value in seed
// order, and their median and quartiles.
type summary struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	// Spread is (q3-q1)/median: the run-to-run noise the bound is read
	// against.
	Spread float64 `json:"spread"`
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Values: xs, Q1: q1, Median: q2, Q3: q3, Spread: spread(xs)}
}

// baselineMetric is one end-to-end metric of one workload in the baseline.
type baselineMetric struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Sets   []summary `json:"sets"`
}

// baseline is bench/baseline.json.
type baseline struct {
	Note      string                               `json:"note"`
	Measured  string                               `json:"measured"`
	Machine   string                               `json:"machine"`
	Seconds   float64                              `json:"seconds"`
	Runs      int                                  `json:"runs_per_set"`
	Workloads map[string]map[string]baselineMetric `json:"workloads"`
}

// measureSet runs every workload runs times untraced, run r on seed
// firstSeed+r, and returns workload -> metric -> values.
func measureSet(ctx context.Context, base runConfig, firstSeed int64, runs int, log io.Writer) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, w := range workloads {
		out[w.name] = map[string][]float64{}
		for r := 0; r < runs; r++ {
			cfg := base
			cfg.w, cfg.seed, cfg.trace = w, firstSeed+int64(r), false
			res, err := runWorkload(ctx, cfg, io.Discard)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.name, cfg.seed, err)
			}
			if !res.Correct {
				return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, cfg.seed, res.Failed, res.Attempted)
			}
			for _, def := range compared() {
				out[w.name][def.Name] = append(out[w.name][def.Name], res.all[def.Name])
			}
			out[w.name][validName] = append(out[w.name][validName], res.all[validName])
			fmt.Fprintf(log, "%s seed %d: %s\n", w.name, cfg.seed, res.line())
		}
	}
	return out, nil
}

// rebaselineMain measures the two acceptance sets and writes the baseline.
func rebaselineMain(ctx context.Context, base runConfig, stdout, stderr io.Writer) int {
	b := baseline{
		Note:      "every run, median and quartiles of every end-to-end metric, of the four demoted timings and of the generator verdict, per workload, from two acceptance sets of the same commit; written by bench -rebaseline",
		Measured:  time.Now().UTC().Format("2006-01-02"),
		Machine:   fmt.Sprintf("%d cpus, %s, loopback", nproc(), runtime.Version()),
		Seconds:   base.seconds,
		Runs:      baselineRuns,
		Workloads: map[string]map[string]baselineMetric{},
	}
	for set := 0; set < baselineSets; set++ {
		vals, err := measureSet(ctx, base, base.seed+int64(set*baselineRuns), baselineRuns, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for wname, ms := range vals {
			if b.Workloads[wname] == nil {
				b.Workloads[wname] = map[string]baselineMetric{}
			}
			for _, def := range compared() {
				bm := b.Workloads[wname][def.Name]
				bm.Unit, bm.Better, bm.Bound = def.Unit, def.Better, def.Bound
				bm.Sets = append(bm.Sets, summarize(ms[def.Name]))
				b.Workloads[wname][def.Name] = bm
			}
			bm := b.Workloads[wname][validName]
			bm.Unit, bm.Better = "ratio", "higher"
			bm.Sets = append(bm.Sets, summarize(ms[validName]))
			b.Workloads[wname][validName] = bm
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Dir(baselinePath), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote", baselinePath)
	printAgreement(stdout, b)
	return 0
}

// printAgreement reports, for a two-set baseline, whether the sets agree
// within each metric's own bound.
func printAgreement(w io.Writer, b baseline) {
	fmt.Fprintln(w, "| workload | metric | set 1 median | set 2 median | worse by | spread 1 | spread 2 | bound | agree |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, wl := range workloads {
		for _, def := range compared() {
			bm := b.Workloads[wl.name][def.Name]
			if len(bm.Sets) < 2 {
				continue
			}
			s1, s2 := bm.Sets[0], bm.Sets[1]
			worse := worseBy(def, s1.Median, s2.Median)
			agree := "yes"
			if worse > def.Bound || s1.Spread > def.Bound || s2.Spread > def.Bound {
				agree = "NO"
			}
			if openLoop[def.Name] && !baselineValid(b, wl.name) {
				agree = "generator late"
			}
			fmt.Fprintf(w, "| %s | %s | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				wl.name, def.Name, s1.Median, s2.Median, 100*worse, 100*s1.Spread, 100*s2.Spread, 100*def.Bound, agree)
		}
	}
}

// worseBy is how much worse now is than before as a share of before,
// signed so that positive is worse whichever way the metric points.
func worseBy(def metricDef, before, now float64) float64 {
	if before == 0 {
		return 0
	}
	d := (now - before) / before
	if def.Better == "higher" {
		d = -d
	}
	return d
}

// baselineValid reports whether every open-loop phase behind a workload's
// baseline kept its schedule.
func baselineValid(b baseline, workload string) bool {
	sets := b.Workloads[workload][validName].Sets
	for _, s := range sets {
		if !allValid(s.Values) {
			return false
		}
	}
	return len(sets) > 0
}

// verdict classifies one re-measured metric against its baseline: a
// spread wider than the bound on either side leaves it unresolved rather
// than unchanged, and so does an open-loop latency from a set in which
// the generator ran late (valid false).
func verdict(def metricDef, baseMedian, baseSpread float64, now summary, valid bool) string {
	switch worse := worseBy(def, baseMedian, now.Median); {
	case !valid:
		return "unresolved (generator late)"
	case baseSpread > def.Bound || now.Spread > def.Bound:
		return "unresolved"
	case worse > def.Bound:
		return "REGRESSION"
	case worse < -def.Bound:
		return "improved"
	}
	return "ok"
}

// compareMain re-measures every workload and diffs it against the
// committed baseline, printing the markdown table a PR pastes into
// CHANGES.md. It exits non-zero on a regression.
func compareMain(ctx context.Context, base runConfig, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", baselinePath, err)
		return 1
	}
	vals, err := measureSet(ctx, base, base.seed, compareRuns, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	fmt.Fprintf(stdout, "baseline of %s (%s), %d runs per workload now\n\n", b.Measured, b.Machine, compareRuns)
	fmt.Fprintln(stdout, "| workload | metric | unit | baseline | now | worse by | spread | bound | verdict |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|")
	for _, wl := range workloads {
		for _, def := range compared() {
			bm, ok := b.Workloads[wl.name][def.Name]
			if !ok || len(bm.Sets) == 0 {
				fmt.Fprintf(stdout, "| %s | %s | %s | - | - | - | - | - | not in baseline |\n", wl.name, def.Name, def.Unit)
				continue
			}
			var meds, spreads []float64
			for _, s := range bm.Sets {
				meds = append(meds, s.Median)
				spreads = append(spreads, s.Spread)
			}
			baseMedian, baseSpread := median(meds), quantile(sortedCopy(spreads), 1)
			now := summarize(vals[wl.name][def.Name])
			valid := !openLoop[def.Name] || baselineValid(b, wl.name) && allValid(vals[wl.name][validName])
			v := verdict(def, baseMedian, baseSpread, now, valid)
			if v == "REGRESSION" {
				code = 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.4g | %.4g | %+.1f%% | %.1f%% | %.0f%% | %s |\n",
				wl.name, def.Name, def.Unit, baseMedian, now.Median,
				100*worseBy(def, baseMedian, now.Median), 100*now.Spread, 100*def.Bound, v)
		}
	}
	return code
}
