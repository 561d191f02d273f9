// Command bench is the repository's benchmark: it brings up a real
// loopback deployment as child processes of itself (2 storage shards, 3
// processors, 1 router, each started through the public grouting.Serve*
// API), drives it from this one generator process, checks every answer
// against the oracle and prints every metric by name with its unit.
//
//	bench -workload point_hot -seed 1 -seconds 10 -trace 0   # one run, as the driver makes them
//	bench -seed 1                                            # all four workloads, untraced then traced
//	bench -compare                                           # re-measure and diff against baseline.json
//	bench -rebaseline                                        # measure two acceptance sets, rewrite baseline.json
//
// See README.md beside this file for what each metric and workload means.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is BENCHMARK.json's run_seconds: long enough that the
// second-scale noise of a shared two-core machine averages out of both
// phases, short enough that the driver's runs fit its time cap.
const defaultSeconds = 10

// benchMain is the generator role. The last line it writes to stdout is
// the result object of the last run it made.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run; empty runs all four, untraced then traced")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", defaultSeconds, "measured seconds per run: half closed loop, half open loop")
		trace   = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = the end-to-end metrics")
		out     = fs.String("out", "bench/out", "directory for trace files and scratch data")
		compare = fs.Bool("compare", false, "re-measure every workload and diff against bench/baseline.json")
		rebase  = fs.Bool("rebaseline", false, "measure the two acceptance sets and rewrite bench/baseline.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}

	// Children die with their stdin; a signal additionally removes the
	// temp dirs before this process goes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
		closeAllClusters()
		os.Exit(130)
	}()
	defer closeAllClusters()

	base := runConfig{seed: *seed, seconds: *seconds, outDir: *out, scale: graphScale, spawn: spawnChild}
	if *compare {
		return compareMain(ctx, base, stdout, stderr)
	}
	if *rebase {
		return rebaselineMain(ctx, base, stdout, stderr)
	}

	type job struct {
		w     *workload
		trace bool
	}
	var jobs []job
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		jobs = []job{{w, *trace != 0}}
	} else {
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				jobs = append(jobs, job{w, traced})
			}
		}
	}
	code := 0
	for _, j := range jobs {
		cfg := base
		cfg.w, cfg.trace = j.w, j.trace
		res, err := runWorkload(ctx, cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", j.w.name, err)
			return 1
		}
		printMetrics(stdout, res.Metrics)
		fmt.Fprintln(stdout, res.line())
		if !res.Correct {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed or answered wrongly\n", j.w.name, res.Failed, res.Attempted)
			code = 1
		}
	}
	return code
}
