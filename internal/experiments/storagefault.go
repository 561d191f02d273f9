package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/query"
)

func init() {
	register("storagefault", "design (§1)", "kill one storage server mid-workload: R=2 fails over and sustains throughput, R=1 loses its shard's uncached keys", runStorageFault)
}

// sfRow is one cell's phase-B (post-fault) measurements.
type sfRow struct {
	ok, failed int
	qps        float64
	hit        float64
	failovers  int64
	epoch      uint64
}

// runStorageFault exercises the decoupled design's storage-side
// fault-tolerance claim: with the storage tier replicated (R=2), killing
// one server mid-workload loses zero queries — reads fail over to the
// surviving replicas and the under-replicated records are re-replicated —
// while the unreplicated control (R=1) can only answer queries whose
// records are cached or on surviving shards, failing the rest with the
// typed unavailable error. Every successful result is verified against
// the oracle as it streams; the cells share both workloads, so they
// differ only in replication factor and the fault.
func runStorageFault(sc Scale) (Result, error) {
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return Result{}, err
	}
	warm := workload(g, sc, 2, 2)
	// Phase B queries fresh hotspot regions, so they actually reach the
	// storage tier instead of being absorbed by the caches phase A warmed —
	// a fault the cache fully masks would measure nothing.
	cold := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots:       sc.Hotspots,
		QueriesPerHotspot: sc.PerHotspot,
		R:                 2,
		H:                 2,
		Seed:              sc.Seed + 9001,
	})
	specs := []struct {
		name     string
		replicas int
		fault    bool
	}{
		{"control R=2", 2, false},
		{"fault R=2", 2, true},
		{"fault R=1", 1, true},
	}
	rows := make([]sfRow, len(specs))
	cells := make([]func() error, len(specs))
	for i, spec := range specs {
		cells[i] = func() error {
			row, err := runStorageFaultCell(g, sc, spec.replicas, spec.fault, warm, cold)
			if err != nil {
				return fmt.Errorf("%s: %w", spec.name, err)
			}
			rows[i] = row
			return nil
		}
	}
	if err := runCells(cells); err != nil {
		return Result{}, err
	}
	control := rows[0].qps
	t := Table{Columns: columns("cell", "answered", "failed", "answered%|%.1f", "qps|%.0f", "vs-ctrl%|%.1f", "hit%|%.1f", "failovers", "st-epoch")}
	for i, spec := range specs {
		r := rows[i]
		vs := 0.0
		if control > 0 {
			vs = 100 * r.qps / control
		}
		ansPct := 0.0
		if total := r.ok + r.failed; total > 0 {
			ansPct = 100 * float64(r.ok) / float64(total)
		}
		t.Rows = append(t.Rows, []any{spec.name, r.ok, r.failed, ansPct, r.qps, vs, 100 * r.hit, r.failovers, r.epoch})
	}
	res := Result{Tables: []Table{t}, Foot: []string{
		"phase B queries fresh regions after the fault lands. expected: fault R=2 answers",
		"everything (failover + synchronous re-replication) at >=90% of the control's",
		"goodput, while fault R=1 only answers what its caches and surviving shards",
		"cover — the rest fail with the typed unavailable error after burning a",
		"discovery round trip (failures abort early, which is why R=1's goodput per",
		"busy-second can exceed 100%: the degradation is the answered% column)",
	}}
	if rows[1].failed != 0 {
		return res, fmt.Errorf("R=2 lost %d queries across the storage failure", rows[1].failed)
	}
	if control > 0 && rows[1].qps < 0.9*control {
		return res, fmt.Errorf("R=2 sustained only %.1f%% of control throughput", 100*rows[1].qps/control)
	}
	if total := rows[2].ok + rows[2].failed; total > 0 && rows[2].failed == 0 {
		return res, fmt.Errorf("the R=1 fault cell lost nothing — the fault is not reaching storage")
	}
	return res, nil
}

// runStorageFaultCell warms one session on the warm workload, optionally
// fails storage slot 0, then runs the cold workload measuring goodput,
// hit rate and failures.
func runStorageFaultCell(g *graphT, sc Scale, replicas int, fault bool, warm, cold []queryT) (sfRow, error) {
	cfg := sysConfig(core.PolicyHash, sc)
	cfg.StorageReplicas = replicas
	sys, err := core.NewSystem(g, cfg)
	if err != nil {
		return sfRow{}, err
	}
	ses, err := sys.NewSession()
	if err != nil {
		return sfRow{}, err
	}
	// Phase A: warm the processor caches on the whole warm workload.
	for _, q := range warm {
		res, _, err := ses.Execute(q)
		if err != nil {
			return sfRow{}, err
		}
		if res != answer(g, q) {
			return sfRow{}, fmt.Errorf("warmup query on node %d answered wrongly", q.Node)
		}
	}
	if fault {
		if err := sys.FailStorage(0); err != nil {
			return sfRow{}, err
		}
	}
	// Phase B: replay. Failed queries still cost virtual time (the burned
	// discovery round trips), so goodput = answered / elapsed is honest.
	var row sfRow
	t0 := ses.Now()
	h0, m0 := ses.Stats()
	for _, q := range cold {
		res, _, err := ses.Execute(q)
		if err != nil {
			if errors.Is(err, query.ErrUnavailable) {
				row.failed++
				continue
			}
			return row, err
		}
		if res != answer(g, q) {
			return row, fmt.Errorf("query on node %d answered wrongly after the fault", q.Node)
		}
		row.ok++
	}
	elapsed := ses.Now() - t0
	if s := elapsed.Seconds(); s > 0 {
		row.qps = float64(row.ok) / s
	}
	h1, m1 := ses.Stats()
	if touched := (h1 - h0) + (m1 - m0); touched > 0 {
		row.hit = float64(h1-h0) / float64(touched)
	}
	view := sys.StorageTopology()
	row.epoch = view.Epoch
	for _, m := range view.Members {
		row.failovers += int64(sys.Store().Stats(m.Slot).Failovers)
	}
	return row, nil
}
