package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kvstore"
	"repro/internal/partition"
)

var (
	// fig8Policies: the five lines of Figures 8, 9 and 14-16.
	fig8Policies  = []core.Policy{core.PolicyNoCache, core.PolicyNextReady, core.PolicyHash, core.PolicyLandmark, core.PolicyEmbed}
	smartPolicies = []core.Policy{core.PolicyLandmark, core.PolicyEmbed}
	embedOnly     = []core.Policy{core.PolicyEmbed}
	hashRef       = core.PolicyHash
	noCacheRef    = core.PolicyNoCache
)

// capacity is a Figure 9 axis value: a per-processor cache size expressed
// as a fraction of the workload's working set (the paper's 16 MB - 4096 MB
// axis scaled to the synthetic datasets).
type capacity struct {
	label string
	bytes int64
}

func (c capacity) String() string { return fmt.Sprintf("%s (%dB)", c.label, c.bytes) }

func cacheCapacities(g *graphT, sc Scale, qs []queryT) ([]any, error) {
	ws, err := workingSetBytes(g, sc, qs)
	if err != nil {
		return nil, err
	}
	return vals(
		capacity{"ws/256", ws / 256}, capacity{"ws/64", ws / 64}, capacity{"ws/16", ws / 16},
		capacity{"ws/4", ws / 4}, capacity{"ws", ws}, capacity{"4ws", 4 * ws},
	), nil
}

// workingSetBytes measures the workload's distinct-record footprint: the
// cumulative bytes a single processor with an unbounded cache admits.
func workingSetBytes(g *graphT, sc Scale, qs []queryT) (int64, error) {
	cfg := sysConfig(core.PolicyHash, sc)
	cfg.Processors = 1
	rep, err := runPolicy(g, cfg, qs)
	if err != nil {
		return 0, err
	}
	var ws int64
	for _, pr := range rep.PerProc {
		ws += pr.Cache.CumInsertBytes
	}
	if ws == 0 {
		ws = 1
	}
	return ws, nil
}

// landmarkCounts keeps the Figure 13(a) counts a graph this size can host.
func landmarkCounts(g *graphT, _ Scale, _ []queryT) ([]any, error) {
	var counts []any
	for _, l := range []int{4, 8, 16, 32, 64, 96, 128} {
		if l <= g.NumNodes()/4 {
			counts = append(counts, l)
		}
	}
	return counts, nil
}

// placement is an ablation-partition axis value: a way to assign records
// to the four storage servers, and the edge cut it leaves.
type placement struct {
	name   string
	placer kvstore.Placer
	cut    float64
}

func (p placement) String() string { return p.name }

func storagePlacements(g *graphT, _ Scale, _ []queryT) ([]any, error) {
	ldg := partition.LDG(g, 4, 0.1)
	refined := partition.LDG(g, 4, 0.1)
	partition.Refine(g, refined, 2, 0.1)
	return vals(
		placement{"murmur-hash", nil, partition.HashPartition(g, 4).CutFraction(g)},
		placement{"ldg-streaming", kvstore.TablePlacer{Assign: ldg.Of}, ldg.CutFraction(g)},
		placement{"ldg+refine", kvstore.TablePlacer{Assign: refined.Of}, refined.CutFraction(g)},
	), nil
}

// The three panels of Figures 14-16: one table per workload or dataset,
// policies down the rows.
var (
	responseAndHits = []col{respTime.at("response-time", 0), hits.at("cache-hits", 0), misses.at("cache-misses", 0), hitRate.at("hit-rate", 0), captured("reuse-captured", 0)}
	responseAndRate = []col{respTime.at("response-time", 0), hitRate.at("hit-rate", 0)}
)

// sweeps is every figure of the paper that is a sweep, and the four
// ablations. A new one is a new entry.
var sweeps = []sweep{
	{
		axis:     axis{name: "processors", values: vals(1, 2, 3, 4, 5, 6, 7), set: func(c *core.Config, v any) { c.Processors = v.(int) }},
		policies: fig8Policies,
		ref:      &hashRef, refProcs: 1,
		views: []view{{
			id: "fig8a", paper: "Figure 8(a)", desc: "throughput vs number of query processors (1-7), 4 storage servers",
			cols:  qps.perPolicy(fig8Policies),
			notes: []string{"paper: Embed scales ~linearly; baselines saturate at 3-5 processors"},
		}, {
			id: "fig8b", paper: "Figure 8(b)", desc: "cache hits vs number of query processors",
			cols: append(hits.perPolicy(fig8Policies), captured("Hash-captured", 2), captured("Landmark-captured", 3), captured("Embed-captured", 4)),
			lead: func(t gridTable) string {
				last := t.reps[len(t.reps)-1]
				return fmt.Sprintf("paper: 'Cache Hits + Cache Misses = 52M'; here total touched = %d per run", last[len(last)-1].Touched)
			},
		}},
	},
	{
		axis: axis{name: "storage-servers", values: vals(1, 2, 3, 4, 5, 6, 7), set: func(c *core.Config, v any) {
			c.Processors, c.StorageServers = 4, v.(int)
		}},
		policies: fig8Policies,
		views: []view{{
			id: "fig8c", paper: "Figure 8(c)", desc: "throughput vs number of storage servers (1-7), 4 query processors",
			cols:  qps.perPolicy(fig8Policies),
			notes: []string{"paper: 1-2 storage servers bottleneck 4 processors; saturation at ~4 servers"},
		}},
	},
	{
		axis:     axis{name: "capacity", derive: cacheCapacities, set: func(c *core.Config, v any) { c.CacheBytes = v.(capacity).bytes }},
		policies: fig8Policies[1:], // no-cache has no capacity axis
		ref:      &noCacheRef,
		views: []view{{
			id: "fig9a", paper: "Figure 9(a)", desc: "response time vs per-processor cache capacity",
			cols: respTime.perPolicy(fig8Policies[1:]),
			lead: func(t gridTable) string {
				return fmt.Sprintf("no-cache reference response time: %v (paper: 86 ms)", t.ref.MeanResponse)
			},
			notes: []string{"paper: tiny caches lose to no-cache; no gain beyond the working set (4GB)"},
		}, {
			id: "fig9b", paper: "Figure 9(b)", desc: "cache hits vs per-processor cache capacity",
			cols:  hits.perPolicy(fig8Policies[1:]),
			notes: []string{"paper: hits grow with capacity and saturate once the working set fits"},
		}},
	},
	{
		axis: axis{name: "preprocessed-%", values: vals(20, 40, 60, 80, 100), set: func(c *core.Config, v any) {
			c.PreprocessFraction = float64(v.(int)) / 100
		}},
		policies: smartPolicies,
		ref:      &hashRef,
		views: []view{{
			id: "fig10", paper: "Figure 10", desc: "robustness to graph updates: preprocess on a fraction of the graph, query the whole graph",
			cols:  respTime.withHashRef(smartPolicies),
			notes: []string{"paper: 80% preprocessing costs ~3ms extra; at 20% smart routing degrades to ~hash quality"},
		}},
	},
	{
		axis: axis{name: "load-factor", values: vals(0.01, 0.1, 1, 10, 20, 100, 1000, 10000), set: func(c *core.Config, v any) {
			c.LoadFactor = v.(float64)
		}},
		policies: []core.Policy{core.PolicyEmbed, core.PolicyLandmark},
		ref:      &hashRef,
		views: []view{{
			id: "fig11a", paper: "Figure 11(a)", desc: "throughput vs load factor (query-stealing / locality trade-off)",
			cols:  qps.withHashRef([]core.Policy{core.PolicyEmbed, core.PolicyLandmark}),
			notes: []string{"paper: best throughput at load factor 10-20; tiny values degenerate to least-loaded, huge values ignore load"},
		}},
	},
	{
		axis:     axis{name: "alpha", values: vals(0.01, 0.25, 0.5, 0.75, 0.99), set: func(c *core.Config, v any) { c.Alpha = v.(float64) }},
		policies: embedOnly,
		ref:      &hashRef,
		views: []view{{
			id: "fig11b", paper: "Figure 11(b)", desc: "response time vs smoothing parameter alpha (embed EMA)",
			cols:  respTime.withHashRef(embedOnly),
			notes: []string{"paper: response time lowest for alpha in [0.25, 0.75]"},
		}},
	},
	{
		axis:     axis{name: "dimensions", values: vals(2, 5, 10, 15, 20, 25, 30), set: func(c *core.Config, v any) { c.Dimensions = v.(int) }},
		policies: embedOnly,
		ref:      &hashRef,
		views: []view{{
			id: "fig12b", paper: "Figure 12(b)", desc: "response time vs embedding dimensionality",
			cols:  respTime.withHashRef(embedOnly),
			notes: []string{"paper: minimum response time at ~10 dimensions (accuracy vs routing-cost trade-off)"},
		}},
	},
	{
		axis:     axis{name: "landmarks", derive: landmarkCounts, set: func(c *core.Config, v any) { c.Landmarks = v.(int) }},
		policies: smartPolicies,
		ref:      &hashRef,
		views: []view{{
			id: "fig13a", paper: "Figure 13(a)", desc: "response time vs number of landmarks",
			cols:  respTime.withHashRef(smartPolicies),
			notes: []string{"paper: more landmarks generally help; 96 is the chosen trade-off against preprocessing time"},
		}},
	},
	{
		axis: axis{name: "min-separation(hops)", values: vals(1, 2, 3, 4, 5), mayFail: true, set: func(c *core.Config, v any) {
			c.MinSeparation = v.(int)
		}},
		policies: smartPolicies,
		ref:      &hashRef,
		views: []view{{
			id: "fig13b", paper: "Figure 13(b)", desc: "response time vs minimum landmark separation",
			cols:  respTime.withHashRef(smartPolicies),
			notes: []string{"paper: separation has little influence (best at 3-4 hops)"},
		}},
	},
	{
		hops:     [][2]int{{1, 2}, {2, 2}},
		policies: fig8Policies,
		ref:      &hashRef, refProcs: 1,
		views: []view{{
			id: "fig14", paper: "Figure 14", desc: "response time and cache hits/misses for r-hop hotspots (r=1,2), 2-hop traversals",
			byPolicy: true, cols: responseAndHits, notesLast: true,
			notes: []string{"paper: smart routings beat baselines for both radii via more cache hits"},
		}},
	},
	{
		hops:     [][2]int{{2, 1}, {2, 2}, {2, 3}},
		policies: fig8Policies,
		views: []view{{
			id: "fig15", paper: "Figure 15", desc: "response time for h-hop traversals (h=1,2,3), 2-hop hotspots",
			byPolicy: true, cols: responseAndRate, notesLast: true,
			notes: []string{"paper: smart routing wins at every h; the gap narrows at h=3 (compute dominates, ~15% lower than baselines)"},
		}},
	},
	{
		datasets: []gen.Dataset{gen.Memetracker, gen.Friendster},
		policies: fig8Policies,
		views: []view{{
			id: "fig16", paper: "Figure 16", desc: "response time on Memetracker and Friendster",
			byPolicy: true, cols: responseAndRate, notesLast: true,
			notes: []string{
				"paper: Memetracker mirrors WebGraph (baselines -30% vs no-cache, smart -10% more);",
				"       Friendster's huge 2-hop neighbourhoods shrink all caching gains (~7% + ~3%)",
			},
		}},
	},
	{
		axis:     axis{values: vals(false, true), set: func(c *core.Config, v any) { c.DisableStealing = v.(bool) }},
		policies: fig8Policies,
		views: []view{{
			id: "ablation-stealing", paper: "Req 2 / Section 4.6", desc: "query stealing on vs off for every routing policy",
			byPolicy: true,
			cols: []col{
				qps.at("throughput(stealing)", 0), qps.at("throughput(no-steal)", 1), stolen.at("stolen", 0),
				ratio("gain", "%.2fx", 0, 1, func(r *core.Report) float64 { return r.ThroughputQPS }),
			},
			notes: []string{"expected: stealing helps skewed policies (hash, smart) most; next-ready is already balanced"},
		}},
	},
	{
		axis:     axis{values: vals(false, true), set: func(c *core.Config, v any) { c.NoBatching = v.(bool) }},
		policies: []core.Policy{core.PolicyNoCache, core.PolicyHash, core.PolicyEmbed},
		views: []view{{
			id: "ablation-batch", paper: "Section 2.3 (page-granularity transfer)", desc: "frontier-batched multi-reads vs one round trip per key",
			byPolicy: true,
			cols: []col{
				respTime.at("batched-response", 0), respTime.at("per-key-response", 1),
				ratio("slowdown", "%.1fx", 1, 0, func(r *core.Report) float64 { return float64(r.MeanResponse) }),
			},
			notes: []string{"expected: per-key round trips are dramatically slower; caching recovers part of the gap"},
		}},
	},
	{
		axis: axis{name: "failed-processors", values: vals(0, 1, 2, 3), set: func(c *core.Config, v any) {
			for p := 0; p < v.(int); p++ {
				c.FailedProcessors = append(c.FailedProcessors, p*2) // spread failures
			}
		}},
		policies: embedOnly,
		views: []view{{
			id: "ablation-failure", paper: "Section 1 / 3.4.1 (fault tolerance)", desc: "processor failures: queries divert to the next-best live processor",
			cols:  []col{qps.at("Embed-throughput", 0), respTime.at("Embed-response", 0), diverted.at("diverted", 0), hitRate.at("hit-rate", 0)},
			notes: []string{"expected: graceful throughput degradation; every query still answered exactly"},
		}},
	},
	{
		axis:     axis{name: "storage-partitioning", derive: storagePlacements, set: func(c *core.Config, v any) { c.Placer = v.(placement).placer }},
		policies: []core.Policy{core.PolicyEmbed, core.PolicyNoCache},
		views: []view{{
			id: "ablation-partition", paper: "Section 2.3 claim", desc: "storage-tier partitioning (hash vs LDG vs refined edge-cut) under smart routing",
			cols: []col{
				{Column{"edge-cut", "%.3f"}, func(r row) any { return r.v.(placement).cut }},
				respTime.at("Embed-response", 0), hitRate.at("Embed-hit-rate", 0), respTime.at("NoCache-response", 1),
			},
			notes: []string{"expected: under smart routing the storage partitioning barely matters (the paper's core claim)"},
		}},
	},
}
