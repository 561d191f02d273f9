// Command grouting-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	grouting-bench -list
//	grouting-bench -run fig8a                 # one experiment, quick scale
//	grouting-bench -run all -scale full       # everything at paper scale
//	grouting-bench -run fig7 -graphscale 0.5  # override the graph size
//	grouting-bench -run all -parallel 0       # fan cells out over all cores
//
// Each figure's independent (policy, configuration, dataset) cells run on
// a bounded worker pool when -parallel is set; every cell owns a private
// System and virtual timeline, so the reported numbers are bit-identical
// to a serial run at any worker count.
//
// Output is a paper-style text table per experiment, with the expected
// qualitative shape quoted from the paper next to the measured rows. With
// -benchdir set, each experiment's Result — the same tables with the cells
// still numbers — is also written there as BENCH_<id>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		runID      = flag.String("run", "", "experiment id to run, or 'all'")
		list       = flag.Bool("list", false, "list available experiments")
		scaleName  = flag.String("scale", "quick", "quick or full")
		graphScale = flag.Float64("graphscale", 0, "override the dataset scale factor")
		hotspots   = flag.Int("hotspots", 0, "override the number of workload hotspots")
		seed       = flag.Int64("seed", 0, "override the experiment seed")
		parallel   = flag.Int("parallel", 1, "worker pool size for independent experiment cells; 0 = GOMAXPROCS, 1 = serial (results are identical at any setting)")
		benchDir   = flag.String("benchdir", "", "directory to write each experiment's result to as BENCH_<id>.json ('' writes no files)")
	)
	flag.Parse()
	experiments.SetParallelism(*parallel)

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %-14s %s\n", e.ID, e.Paper, e.Desc)
		}
		return
	}
	if *runID == "" {
		flag.Usage()
		os.Exit(2)
	}

	sc := experiments.Quick
	switch *scaleName {
	case "quick":
	case "full":
		sc = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scaleName)
		os.Exit(2)
	}
	if *graphScale > 0 {
		sc.GraphScale = *graphScale
	}
	if *hotspots > 0 {
		sc.Hotspots = *hotspots
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	var toRun []experiments.Experiment
	if *runID == "all" {
		toRun = experiments.All()
	} else {
		e, ok := experiments.Get(*runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *runID)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{e}
	}

	err := experiments.RunAll(toRun, sc, func(res experiments.Result, took time.Duration) {
		if err := show(res, *benchDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", res.ID, took.Round(time.Millisecond))
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// show prints a result and, given a bench directory, writes it there as
// BENCH_<id>.json.
func show(res experiments.Result, benchDir string) error {
	if err := experiments.Render(os.Stdout, res); err != nil || benchDir == "" {
		return err
	}
	path := filepath.Join(benchDir, "BENCH_"+res.ID+".json")
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
