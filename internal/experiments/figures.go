package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/landmark"
	"repro/internal/simnet"
)

// The figures whose cells are not a policy run over an axis: Figure 7's
// coupled-system baselines, Figure 9(c)'s binary searches and Figure
// 12(a)'s embedding-quality measurements.
func init() {
	register("fig7", "Figure 7", "throughput: SEDGE/Giraph vs PowerGraph vs gRouting-E vs gRouting", runFig7)
	register("fig9c", "Figure 9(c)", "minimum cache capacity to reach the no-cache response time", runFig9c)
	register("fig12a", "Figure 12(a)", "embedding relative error vs dimensionality", runFig12a)
}

// fig7Datasets: the paper shows WebGraph, MemeTracker, Freebase (Friendster
// appears in Figure 16).
var fig7Datasets = []gen.Dataset{gen.WebGraph, gen.Memetracker, gen.Freebase}

func runFig7(sc Scale) (Result, error) {
	// Stage 1: generate every dataset (and its workload) concurrently.
	graphs := make([]*graphT, len(fig7Datasets))
	workloads := make([][]queryT, len(fig7Datasets))
	loads := make([]func() error, len(fig7Datasets))
	for i, d := range fig7Datasets {
		loads[i] = func() error {
			g, err := loadPreset(d, sc)
			if err != nil {
				return err
			}
			graphs[i], workloads[i] = g, workload(g, sc, 2, 2)
			return nil
		}
	}
	if err := runCells(loads); err != nil {
		return Result{}, err
	}
	// Stage 2: the four system runs per dataset are independent cells.
	baselineQPS := func(rep *baseline.Report, err error) (float64, error) {
		if err != nil {
			return 0, err
		}
		return rep.ThroughputQPS, nil
	}
	embedQPS := func(g *graphT, qs []queryT, net simnet.Profile) (float64, error) {
		cfg := sysConfig(core.PolicyEmbed, sc)
		cfg.Network = net
		rep, err := runPolicy(g, cfg, qs)
		if err != nil {
			return 0, err
		}
		return rep.ThroughputQPS, nil
	}
	systems := []func(g *graphT, qs []queryT) (float64, error){
		func(g *graphT, qs []queryT) (float64, error) {
			bsp, err := baseline.NewBSP(g, 12, simnet.Ethernet())
			if err != nil {
				return 0, err
			}
			return baselineQPS(bsp.RunWorkload(qs))
		},
		func(g *graphT, qs []queryT) (float64, error) {
			gas, err := baseline.NewGAS(g, 12, simnet.Ethernet())
			if err != nil {
				return 0, err
			}
			return baselineQPS(gas.RunWorkload(qs))
		},
		func(g *graphT, qs []queryT) (float64, error) { return embedQPS(g, qs, simnet.Ethernet()) },
		func(g *graphT, qs []queryT) (float64, error) { return embedQPS(g, qs, simnet.Infiniband()) },
	}
	tput := make([][4]float64, len(fig7Datasets))
	var cells []func() error
	for i := range fig7Datasets {
		for j, run := range systems {
			cells = append(cells, func() (err error) {
				tput[i][j], err = run(graphs[i], workloads[i])
				return err
			})
		}
	}
	if err := runCells(cells); err != nil {
		return Result{}, err
	}
	t := Table{Columns: columns("dataset", "SEDGE/Giraph", "PowerGraph", "gRouting-E", "gRouting", "gR/SEDGE", "gR/PG")}
	for i, d := range fig7Datasets {
		bsp, pg, gre, gri := tput[i][0], tput[i][1], tput[i][2], tput[i][3]
		t.Rows = append(t.Rows, []any{string(d), bsp, pg, gre, gri, gri / bsp, gri / pg})
	}
	return Result{
		Head:   []string{"paper: gRouting-E 5-10x over coupled systems; gRouting (Infiniband) 10-35x"},
		Tables: []Table{t},
	}, nil
}

func runFig9c(sc Scale) (Result, error) {
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return Result{}, err
	}
	qs := workload(g, sc, 2, 2)
	// The two inputs of the searches: the workload's working-set size and
	// the no-cache response time they must reach.
	var ws int64
	var noCache *core.Report
	err = runCells([]func() error{
		func() (err error) { ws, err = workingSetBytes(g, sc, qs); return err },
		func() (err error) { noCache, err = runPolicy(g, sysConfig(core.PolicyNoCache, sc), qs); return err },
	})
	if err != nil {
		return Result{}, err
	}
	target := noCache.MeanResponse

	// One cell per policy; the binary search inside each stays sequential.
	policies := fig8Policies[1:]
	minCaps := make([]int64, len(policies))
	resps := make([]time.Duration, len(policies))
	cells := make([]func() error, len(policies))
	for j, policy := range policies {
		cells[j] = func() (err error) {
			minCaps[j], resps[j], err = minCacheForTarget(g, sc, qs, policy, ws, target)
			return err
		}
	}
	if err := runCells(cells); err != nil {
		return Result{}, err
	}
	t := Table{Columns: columns("policy", "min-cache-bytes", "fraction-of-ws", "response-at-min")}
	for j, policy := range policies {
		if minCaps[j] < 0 {
			t.Rows = append(t.Rows, []any{policyLabel(policy), "not reached", "-", "-"})
			continue
		}
		t.Rows = append(t.Rows, []any{policyLabel(policy), minCaps[j], float64(minCaps[j]) / float64(ws), resps[j]})
	}
	return Result{
		Head: []string{
			fmt.Sprintf("no-cache response time target: %v", target),
			"paper: smart routings reach break-even with far less cache than baselines",
		},
		Tables: []Table{t},
	}, nil
}

// minCacheForTarget binary-searches the smallest capacity whose mean
// response beats target.
func minCacheForTarget(g *graphT, sc Scale, qs []queryT, policy core.Policy, ws int64, target time.Duration) (int64, time.Duration, error) {
	run := func(capacity int64) (time.Duration, error) {
		cfg := sysConfig(policy, sc)
		cfg.CacheBytes = capacity
		rep, err := runPolicy(g, cfg, qs)
		if err != nil {
			return 0, err
		}
		return rep.MeanResponse, nil
	}
	lo, hi := int64(1), ws*4
	respHi, err := run(hi)
	if err != nil {
		return 0, 0, err
	}
	if respHi > target {
		return -1, 0, nil // never reaches the no-cache line
	}
	var bestResp time.Duration = respHi
	for i := 0; i < 12 && lo < hi; i++ {
		mid := (lo + hi) / 2
		resp, err := run(mid)
		if err != nil {
			return 0, 0, err
		}
		if resp <= target {
			hi = mid
			bestResp = resp
		} else {
			lo = mid + 1
		}
	}
	return hi, bestResp, nil
}

func runFig12a(sc Scale) (Result, error) {
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return Result{}, err
	}
	lms := landmark.Select(g, sc.Landmarks, sc.MinSep)
	idx := landmark.BuildIndex(g, lms, 0)
	dims := []int{2, 5, 10, 15, 20}
	t := Table{
		Columns: columns("dimensions", "distance-fit-error(Eq4)|%.3f", "2-hop-pair-error|%.3f"),
		Rows:    make([][]any, len(dims)),
	}
	cells := make([]func() error, len(dims))
	for i, d := range dims {
		cells[i] = func() error {
			emb, err := embed.Build(g, idx, embed.Options{Dimensions: d, Seed: sc.Seed})
			if err != nil {
				return err
			}
			t.Rows[i] = []any{d,
				embed.MeasureLandmarkFit(idx, emb, 400, sc.Seed+9),
				embed.MeasureRelativeError(g, emb, 300, 2, sc.Seed+9),
			}
			return nil
		}
	}
	if err := runCells(cells); err != nil {
		return Result{}, err
	}
	return Result{
		Head:   []string{"paper: error decreases with dimensions, saturating around 10"},
		Tables: []Table{t},
	}, nil
}
