package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/simnet"
	"repro/internal/xrand"
)

func init() {
	register("drift", "design (§1)", "hotspot workload whose center moves mid-run: adaptive placement vs static vs full re-load, windowed goodput after the drift", runDrift)
}

// The drift cells share one locality-sensitive deployment: a small cache
// (so reads actually reach the storage tier), a StorageAffinity cost
// model (so where a record lives matters), and the smart-routing policy
// (so each hotspot's queries concentrate on one processor — the reader
// locality the placement subsystem feeds on).
const (
	// driftAffinity multiplies the cost of a fetch served by a storage
	// slot other than the reading processor's near slot.
	driftAffinity = 4.0
	// driftCacheBytes keeps the processor caches small enough that the
	// hotspot working set never fully fits: the workload keeps reading
	// from storage, which is what placement can speed up.
	driftCacheBytes = 1 << 10
	// driftBudget bounds the bytes the adaptive cell may migrate per
	// planning cycle — the knob that keeps a migration storm off the
	// query path. Deliberately smaller than the hot set, so convergence
	// takes several cycles and the bound is visibly doing work. The
	// re-load cell runs unbounded.
	driftBudget = 8 << 10
	// driftMinReads is the planner heat floor, sized to the per-window
	// read counts of the quick-scale workload (the default of 16 is
	// tuned for long-running deployments, not a windowed experiment).
	driftMinReads = 2
	// driftRepeat multiplies Scale.PerHotspot into the per-vertex read
	// repetition count — hotspots are hot because the same vertices are
	// read over and over.
	driftRepeat = 4
	// driftWindows is how many goodput windows each phase is split into;
	// the adaptive cell runs one planning cycle at each boundary.
	driftWindows = 6
	// driftTail is how many final windows average into the steady-state
	// goodput each cell is judged on.
	driftTail = 2
)

// driftCell parameterises one column of the comparison.
type driftCell struct {
	name string
	// budget is the per-cycle migration budget (<= 0 unbounded).
	budget int64
	// ticks runs a planning cycle at every window boundary (the online
	// adaptive mode). False = the placement never changes.
	ticks bool
	// oracle replays the post-drift workload once unmeasured and then
	// migrates with no budget until quiescent before measuring — the
	// offline "re-load the graph with perfect knowledge" upper bound.
	oracle bool
}

// driftMeasure is one cell's outcome: goodput per phase-B window, the
// mean of the last driftTail of them, and what placement moved.
type driftMeasure struct {
	windows []float64
	tail    float64
	moved   metrics.PlacementCounters
}

// runDrift measures what the adaptive-placement subsystem is for. Phase A
// runs a hotspot workload long enough for any placement to settle; then
// the hotspot centers move (phase B, a fresh workload seed) and the same
// deployment keeps serving. Three cells differ only in what placement may
// do: "static" never migrates (records stay where the hash put them),
// "adaptive" runs the online planner — bounded bytes per cycle, one cycle
// per window — and "re-load" is the offline oracle that repartitions for
// phase B with no budget before measurement begins. Goodput (queries per
// virtual second) is measured per window across phase B; the headline is
// the recovery fraction — how much of the static→re-load goodput gap the
// bounded online planner closes by the final windows.
func runDrift(sc Scale) (Result, error) {
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return Result{}, err
	}
	// The drifting workload: repeated 1-hop reads pinned at hotspot
	// vertices. Pinning (rather than sampling a region) is what makes a
	// workload placement *can* serve: every repetition reheats the same
	// records, so the planner sees a clear, dominant reader per record. A
	// different seed for phase B = the hotspots move.
	qsA := driftWorkload(g, sc, sc.Seed+1)
	qsB := driftWorkload(g, sc, sc.Seed+101)

	cells := []driftCell{
		{name: "static", ticks: false},
		{name: "adaptive", budget: driftBudget, ticks: true},
		{name: "re-load", budget: 0, oracle: true},
	}
	results := make([]driftMeasure, len(cells))
	work := make([]func() error, len(cells))
	for i, cell := range cells {
		work[i] = func() error {
			m, err := runDriftCell(g, sc, cell, qsA, qsB)
			if err != nil {
				return fmt.Errorf("%s: %w", cell.name, err)
			}
			results[i] = m
			return nil
		}
	}
	if err := runCells(work); err != nil {
		return Result{}, err
	}

	t := Table{Columns: columns("cell", "first-win q/s|%.0f", "last-win q/s|%.0f", "tail q/s|%.0f", "moved", "moved-KiB|%.1f", "cycles")}
	for i, cell := range cells {
		m := results[i]
		t.Rows = append(t.Rows, []any{cell.name, m.windows[0], m.windows[len(m.windows)-1], m.tail,
			m.moved.Moved, float64(m.moved.MovedBytes) / 1024, m.moved.Cycles})
	}

	static, adaptive, reload := results[0], results[1], results[2]
	pc := adaptive.moved
	res := Result{Tables: []Table{t}, Foot: []string{
		recoveryLine(static.tail, adaptive.tail, reload.tail),
		fmt.Sprintf("bounded online planner (target >= 0.90); adaptive migrated %d KiB over %d", pc.MovedBytes/1024, pc.Cycles),
		fmt.Sprintf("cycles against a %d KiB/cycle budget", int64(driftBudget)/1024),
	}}
	// The budget bound is structural: the planner may never move more than
	// budget bytes per cycle, so the aggregate must obey cycles × budget.
	// A violation is a bug, not a measurement.
	if pc.MovedBytes > pc.Cycles*driftBudget {
		return res, fmt.Errorf("budget violated: moved %d bytes over %d cycles with a %d-byte budget", pc.MovedBytes, pc.Cycles, int64(driftBudget))
	}
	return res, nil
}

// recoveryLine words the share of the static→re-load tail goodput gap the
// adaptive cell closed. With no gap to close (re-load no better than
// static) the share is undefined, and the line says what adaptive
// placement did to goodput instead: a loss must not read as a recovery.
func recoveryLine(static, adaptive, reload float64) string {
	gap, gain := reload-static, adaptive-static
	if gap <= 0 {
		return fmt.Sprintf("recovery fraction: undefined (re-load − static %+.0f q/s); adaptive − static %+.0f q/s under the", gap, gain)
	}
	return fmt.Sprintf("recovery fraction: %.2f of the static→re-load goodput gap closed by the", gain/gap)
}

// runDriftCell runs one cell: phase A to steady state, the drift, then
// phase B in measured goodput windows. Every result is verified against
// the in-memory oracle as it streams — a placement move that corrupted an
// answer would fail the experiment, not skew it.
func runDriftCell(g *graphT, sc Scale, cell driftCell, qsA, qsB []queryT) (driftMeasure, error) {
	cfg := sysConfig(core.PolicyEmbed, sc)
	// The Ethernet deployment (gRouting-E): with a 90µs RTT the round-trip
	// legs dominate a frontier fetch, which is the regime where the far
	// penalty — and therefore placement — matters most.
	cfg.Network = simnet.Ethernet()
	// A huge load divisor makes the routing pure-locality and therefore
	// *stable*: the planner chases each record's dominant reader, and a
	// load-adaptive router that reshuffles readers under its feet would
	// invalidate placements as fast as they are made. (Production deployments
	// balance this trade-off; the experiment isolates the placement effect.)
	cfg.LoadFactor = 1e9
	cfg.CacheBytes = driftCacheBytes
	cfg.StorageAffinity = driftAffinity
	cfg.AdaptivePlacement = true
	cfg.PlacementBudget = cell.budget
	cfg.PlacementMinReads = driftMinReads
	sys, err := core.NewSystem(g, cfg)
	if err != nil {
		return driftMeasure{}, err
	}
	ses, err := sys.NewSession()
	if err != nil {
		return driftMeasure{}, err
	}
	run := func(batch []queryT) error {
		for _, q := range batch {
			res, _, err := ses.Execute(q)
			if err != nil {
				return err
			}
			if res != answer(g, q) {
				return fmt.Errorf("query on node %d answered wrongly under placement churn", q.Node)
			}
		}
		return nil
	}

	// Phase A: the workload every placement gets to settle on.
	for _, win := range driftSplit(qsA, driftWindows) {
		if err := run(win); err != nil {
			return driftMeasure{}, err
		}
		if cell.ticks {
			ses.PlacementTick()
		}
	}
	// The oracle cell replays phase B once unmeasured purely to observe
	// the new heat, then migrates unbounded until quiescent: the state a
	// full offline re-load with perfect workload knowledge would produce.
	if cell.oracle {
		if err := run(qsB); err != nil {
			return driftMeasure{}, err
		}
		for i := 0; i < 8; i++ {
			if ses.PlacementTick() == 0 {
				break
			}
		}
	}

	// Phase B, measured: the hotspots have moved.
	var m driftMeasure
	for _, win := range driftSplit(qsB, driftWindows) {
		t0 := ses.Now()
		if err := run(win); err != nil {
			return driftMeasure{}, err
		}
		elapsed := ses.Now() - t0
		if cell.ticks {
			ses.PlacementTick()
		}
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		m.windows = append(m.windows, float64(len(win))/elapsed.Seconds())
	}
	for _, gp := range m.windows[len(m.windows)-driftTail:] {
		m.tail += gp
	}
	m.tail /= driftTail
	m.moved = ses.Snapshot().Placement
	return m, nil
}

// driftWorkload builds one phase of the drifting workload: sc.Hotspots
// hot vertices (sampled by seed — a new seed moves them), each read with
// a 1-hop NeighborAgg driftRepeat×sc.PerHotspot times. Repetitions are
// interleaved round-robin across the hotspots so every measurement window
// reads every hotspot — goodput windows stay comparable and the planner's
// heat refreshes every cycle.
func driftWorkload(g *graphT, sc Scale, seed int64) []queryT {
	rng := xrand.New(seed)
	var eligible []graph.NodeID
	for _, u := range g.Nodes() {
		if g.Degree(u) > 0 {
			eligible = append(eligible, u)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	seen := make(map[graph.NodeID]bool, sc.Hotspots)
	centers := make([]graph.NodeID, 0, sc.Hotspots)
	for len(centers) < sc.Hotspots {
		c := eligible[rng.Intn(len(eligible))]
		if !seen[c] {
			seen[c] = true
			centers = append(centers, c)
		}
		if len(seen) == len(eligible) {
			break
		}
	}
	reps := driftRepeat * sc.PerHotspot
	qs := make([]queryT, 0, reps*len(centers))
	for r := 0; r < reps; r++ {
		for _, c := range centers {
			qs = append(qs, queryT{Type: query.NeighborAgg, Node: c, Hops: 1, Dir: graph.Out})
		}
	}
	return qs
}

// driftSplit cuts qs into n contiguous, near-equal windows (fewer when
// len(qs) < n; never an empty window).
func driftSplit(qs []queryT, n int) [][]queryT {
	if n < 1 {
		n = 1
	}
	if n > len(qs) {
		n = len(qs)
	}
	out := make([][]queryT, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(qs)/n, (i+1)*len(qs)/n
		if lo < hi {
			out = append(out, qs[lo:hi])
		}
	}
	return out
}
