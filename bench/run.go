package main

import (
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	grouting "repro"
)

// ioWindow is how often the daemons' I/O counters are read during the
// closed loop: twenty windows in a five-second phase.
const ioWindow = 250 * time.Millisecond

// runConfig is one invocation of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64 // measured time: half closed loop, half open loop
	trace   bool
	outDir  string
	scale   float64
	spawn   spawner
}

// prepareInputs derives everything a run needs from its seed, outside
// every timed section except the embedding build, which is timed on its
// own because set-up is charged for it.
func prepareInputs(w *workload, seed int64, scale float64) (*inputs, error) {
	in := &inputs{w: w, scale: scale}
	in.g = generateGraph(seed, scale)
	in.queries = generateQueries(w, in.g, seed)
	if len(in.queries) == 0 {
		return nil, fmt.Errorf("workload %s generated no queries", w.name)
	}
	if w.embedFile {
		t0 := time.Now()
		emb, err := buildEmbedding(in.g, derive(seed, streamPrep))
		if err != nil {
			return nil, err
		}
		in.emb = emb
		in.embedBuildS = time.Since(t0).Seconds()
	}
	in.want = oracle(in.g, in.emb, in.queries)
	in.storedBytes = storedBytesOf(in.g)
	if w.mutateEvery > 0 {
		in.slots, in.hot = pickSlots(in.g, in.queries, seed)
		if len(in.slots) < maxInflight {
			return nil, fmt.Errorf("workload %s: only %d free edge slots", w.name, len(in.slots))
		}
	}
	return in, nil
}

// header states what the numbers below it were measured on.
func header(w io.Writer, cfg runConfig, in *inputs, cacheB int64) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fsync := "no WAL"
	if cfg.w.durable {
		fsync = "WAL on a temp dir, fsync off"
	}
	fmt.Fprintf(w, "# workload=%s seed=%d trace=%v seconds=%g\n", cfg.w.name, cfg.seed, cfg.trace, cfg.seconds)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d %s commit=%s\n", nproc(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Fprintf(w, "# deployment: %d storage (R=%d, %s) + %d processors + 1 router (policy %s), child processes on loopback — not a real link\n",
		numStorage, cfg.w.replicas, fsync, numProcessors, cfg.w.policy)
	fmt.Fprintf(w, "# graph: WebGraph scale %g, %d nodes, %d edges, %d stored bytes; cache %d bytes per processor; %d queries\n",
		cfg.scale, in.g.NumNodes(), in.g.NumEdges(), in.storedBytes, cacheB, len(in.queries))
	fmt.Fprintf(w, "# closed loop: %d clients for %gs; open loop: %g op/s for %gs, at most %d in flight, latency from due time\n",
		nproc(), cfg.seconds/2, cfg.w.openRate, cfg.seconds/2, maxInflight)
}

// runWorkload measures one workload once and returns the result line's
// contents. Anything written to log is for people.
func runWorkload(ctx context.Context, cfg runConfig, log io.Writer) (result, error) {
	in, err := prepareInputs(cfg.w, cfg.seed, cfg.scale)
	if err != nil {
		return result{}, err
	}
	return runPrepared(ctx, cfg, in, log)
}

// runPrepared is runWorkload on inputs already derived from the seed.
func runPrepared(ctx context.Context, cfg runConfig, in *inputs, log io.Writer) (result, error) {
	tmpRoot := filepath.Join(cfg.outDir, "tmp")
	in.tmpRoot = tmpRoot
	c, err := setUp(ctx, in, cfg.seed, tmpRoot, cfg.spawn)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer c.close()
	header(log, cfg, in, c.cacheB)

	d := &driver{in: in, cl: c.client}
	if cfg.w.mutateEvery > 0 {
		d.mir = newMirror(in)
	}
	m := measured{"setup_s": c.times.Total}
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))

	var tr *tracer
	var local *localLayers
	if cfg.trace {
		tr = newTracer(cfg.w.name)
		if local, err = newLocalLayers(in); err != nil {
			return result{}, err
		}
		if err := probeSerial(ctx, c, in, d, local, tr, m); err != nil {
			return result{}, err
		}
	}

	// Closed-loop phase: nproc callers that each wait for their reply.
	use0, err := c.usage()
	if err != nil {
		return result{}, err
	}
	st0, err := c.client.Stats(ctx)
	if err != nil {
		return result{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	marks := []usageMark{{u: sumUsage(use0)}}
	var markErr error
	closedStart := time.Now() // within microseconds of the phase's own start
	closed := runClosed(ctx, d, nproc(), half, ioWindow, func() {
		u, err := c.usage()
		if err != nil {
			markErr = err
			return
		}
		marks = append(marks, usageMark{at: int64(time.Since(closedStart)), u: sumUsage(u)})
	})
	if markErr != nil {
		return result{}, markErr
	}
	runtime.ReadMemStats(&ms1)
	st1, err := c.client.Stats(ctx)
	if err != nil {
		return result{}, err
	}
	use1, err := c.usage()
	if err != nil {
		return result{}, err
	}
	attempted, failed := closed.counts()
	good := float64(attempted - failed)
	if good == 0 {
		return result{}, fmt.Errorf("closed loop: none of %d operations succeeded", attempted)
	}
	u0, u1 := sumUsage(use0), sumUsage(use1)
	m["client.qps"] = good / closed.elapsedS
	m["client.cpu_us_per_op"] = (u1.cpuS - u0.cpuS) * 1e6 / good
	// The I/O costs are the median window's: a burst of background work
	// (a WAL snapshot compaction rewrites its whole shard) falls into one
	// or two windows of a phase, and the whole-phase mean moves by
	// hundreds of bytes per operation with their number.
	marks = append(marks, usageMark{at: int64(closed.elapsedS * 1e9), u: u1})
	sys, bytes := windowCosts(marks, closed.samples)
	m["io_syscalls_per_op"], m["io_bytes_per_op"] = median(sys), median(bytes)
	fmt.Fprintf(log, "closed loop: %d operations in %.2fs, %d failed or wrong: %.0f op/s, %.1f us of daemon CPU per op\n",
		attempted, closed.elapsedS, failed, m["client.qps"], m["client.cpu_us_per_op"])

	// Open-loop phase at the workload's frozen rate.
	open := runOpen(ctx, d, cfg.w.openRate, half, maxInflight)
	oa, of := open.counts()
	attempted, failed = attempted+oa, failed+of
	ost := summarizeOpen(open.samples, nil)
	m["client.lat_p50_ms"] = ost.p50MS
	m["client.lat_p99_ms"] = ost.p99MS
	fmt.Fprintf(log, "open loop: %d samples from due time: p50 %.3f ms, p99 %.3f ms (median of %d blocks of %d); generator lag p50 %.1f us p99 %.1f us, backlog at end %d\n",
		ost.n, ost.p50MS, ost.p99MS, ost.p99Blocks, p99Block, ost.lagP50US, ost.lagP99US, open.backlog)
	// The verdict travels with the numbers: the result line has no field
	// for it and the contract wants exit 0 from a run whose answers are
	// all correct, so it is a metric, and -compare refuses to judge the
	// latencies of a set that holds a disqualified phase.
	m["client.open_loop_valid"] = 1
	if verdict := generatorVerdict(ost, open, maxInflight); verdict != "" {
		m["client.open_loop_valid"] = 0
		fmt.Fprintf(log, "INVALID OPEN LOOP: %s\n", verdict)
	}

	// Quiesce, then verify what the deployment now holds.
	if d.mir != nil {
		va, vf, err := verifyMirror(ctx, c, in, d.mir, cfg.seed)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(log, "mirror check: %d of %d post-quiesce probes wrong (%d mutations acked)\n", vf, va, d.mir.applied)
		attempted, failed = attempted+va, failed+vf
	}
	useEnd, err := c.usage()
	if err != nil {
		return result{}, err
	}
	m["rss_mb"] = sumUsage(useEnd).hwmMB

	if cfg.trace {
		ph := phaseDeltas{
			closed: closed, open: open, openStats: ost,
			use0: use0, use1: use1, useEnd: useEnd,
			st0: st0, st1: st1,
			mallocs: float64(ms1.Mallocs - ms0.Mallocs), bytes: float64(ms1.TotalAlloc - ms0.TotalAlloc),
			attempted: attempted, failed: failed,
		}
		if err := probeLayers(ctx, c, in, d, local, ph, tr, m); err != nil {
			return result{}, err
		}
		path, err := tr.write(cfg.outDir)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(log, "trace: %d spans written to %s\n", len(tr.spans), path)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	vals, err := m.toResult(defs)
	if err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: vals, all: m}, nil
}

// verifyMirror checks the quiesced deployment against the mirror graph:
// a fresh 1,000-query sample answered on the mirror, and one 1-hop
// reachability probe per toggled edge (reachable exactly when the last
// acked mutation of that edge was its AddEdge).
func verifyMirror(ctx context.Context, c *cluster, in *inputs, mir *mirror, seed int64) (attempted, failed int64, err error) {
	mir.mu.Lock()
	defer mir.mu.Unlock()
	probe := *in.w
	probe.hotspots, probe.perHotspot = 100, 10
	qs := generateQueries(&probe, mir.g, derive(seed, 99))
	for _, s := range mir.slots {
		qs = append(qs, grouting.Query{Type: grouting.Reachability, Node: s.u, Target: s.v, Hops: 1, Dir: grouting.Out})
	}
	for _, q := range qs {
		attempted++
		res, err := c.client.Execute(ctx, q)
		if err != nil || res != answer(mir.g, in.emb, q) {
			failed++
		}
	}
	return attempted, failed, nil
}
