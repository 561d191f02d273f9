package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported figure. BENCHMARK.json repeats every
// definition; a unit test keeps the two lists identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the figures an operator of the deployment sees, reported
// by an untraced run. Bound is the share of the parent's median by which
// the metric may worsen before a change counts as a regression.
//
// The issue lists seven; four of them are not here. Its rule is that a
// metric which does not repeat within a tenth is demoted to a client.*
// layer metric rather than given a wider bound, and the contract asks for
// a run-to-run spread below a third of the bound. baseline.json holds
// every run of the two acceptance sets: qps, lat_p50_ms, lat_p99_ms and
// cpu_us_per_op spread by 6 to 62 % on the shared two-core sandbox (none
// stays within a tenth on any workload), so they are client.qps, client.lat_p50_ms, client.lat_p99_ms
// and client.cpu_us_per_op in the traced run, and -compare still judges
// them against the issue's tenth. The seventh, err_rate, is 0 on every
// healthy run and the contract wants metrics that are never 0: it is the
// result's failed/attempted pair, which the driver checks on every run,
// and client.err_rate. In their place stand two costs per operation that
// repeat to a few percent whatever the host is doing, because they count
// work instead of timing it.
//
// rss_mb and the two counts carry the issue's tenth, twice their worst
// recorded spread. setup_s keeps the widest bound the contract allows:
// the medians of the two recorded sets differ by up to 15 % on the same
// commit, the issue's bound already, and a later change is rejected when
// its median set-up is worse by more than the bound, whatever the shared
// host was doing meanwhile.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.10},
	{"io_syscalls_per_op", "count", "lower", 0.10},
	{"io_bytes_per_op", "B", "lower", 0.10},
}

// perLayer are the single-layer figures of a traced run, grouped by the
// repository module they probe.
var perLayer = []metricDef{
	// client: the root package as the generator sees it. The first four
	// are the issue's end-to-end timings (see endToEnd).
	{Name: "client.qps", Unit: "op/s", Better: "higher"},
	{Name: "client.lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "client.gen_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.gen_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.open_loop_valid", Unit: "ratio", Better: "higher"},
	{Name: "client.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "client.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "client.lat_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lat_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.p99_blocks", Unit: "count", Better: "higher"},
	{Name: "client.serial_rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.idle_p50_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.batch64_us_per_query", Unit: "us", Better: "lower"},
	{Name: "client.err_rate", Unit: "ratio", Better: "lower"},
	// rpc: wire, conn, pool.
	{Name: "rpc.ping_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "rpc.ping_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "rpc.pipelined_pings_per_s", Unit: "1/s", Better: "higher"},
	// router: internal/router and rpc.RouterServer.
	{Name: "router.decide_ns.hash", Unit: "ns", Better: "lower"},
	{Name: "router.decide_ns.landmark", Unit: "ns", Better: "lower"},
	{Name: "router.decide_ns.embed", Unit: "ns", Better: "lower"},
	{Name: "router.hop_us_p50", Unit: "us", Better: "lower"},
	{Name: "router.routing_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "router.routing_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "router.queue_depth_p99", Unit: "count", Better: "lower"},
	{Name: "router.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "router.stolen_per_kop", Unit: "count", Better: "lower"},
	{Name: "router.diverted_per_kop", Unit: "count", Better: "lower"},
	{Name: "router.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "router.rss_mb", Unit: "MiB", Better: "lower"},
	// processor: rpc.ProcessorServer.
	{Name: "processor.exec_warm_us_p50", Unit: "us", Better: "lower"},
	{Name: "processor.exec_warm_us_p99", Unit: "us", Better: "lower"},
	{Name: "processor.exec_cold_us_p50", Unit: "us", Better: "lower"},
	{Name: "processor.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "processor.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "processor.rss_mb", Unit: "MiB", Better: "lower"},
	// cache: internal/cache and Stats().Cache.
	{Name: "cache.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions_per_kop", Unit: "count", Better: "lower"},
	{Name: "cache.inserts_per_kop", Unit: "count", Better: "lower"},
	{Name: "cache.rejected_per_kop", Unit: "count", Better: "lower"},
	{Name: "cache.fill", Unit: "ratio", Better: "lower"},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_evict_ns", Unit: "ns", Better: "lower"},
	// storage: rpc.StorageServer, internal/gstore, internal/kvstore.
	{Name: "storage.multiget_us_p50", Unit: "us", Better: "lower"},
	{Name: "storage.multiget_us_p99", Unit: "us", Better: "lower"},
	{Name: "storage.gets_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "storage.failovers", Unit: "count", Better: "lower"},
	{Name: "storage.load_s", Unit: "s", Better: "lower"},
	{Name: "storage.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "storage.rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "storage.io_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "gstore.fetch_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "gstore.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "kvstore.put_ns", Unit: "ns", Better: "lower"},
	{Name: "kvstore.wal_append_ns", Unit: "ns", Better: "lower"},
	{Name: "kvstore.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "kvstore.snapshots", Unit: "count", Better: "lower"},
	// mquery: plan, subtasks, waves, merge.
	{Name: "mquery.plan_ns", Unit: "ns", Better: "lower"},
	{Name: "mquery.run_us.pattern", Unit: "us", Better: "lower"},
	{Name: "mquery.run_us.reach", Unit: "us", Better: "lower"},
	{Name: "mquery.run_us.knn", Unit: "us", Better: "lower"},
	{Name: "mquery.merge_ns", Unit: "ns", Better: "lower"},
	{Name: "mquery.subtasks_per_op", Unit: "count", Better: "lower"},
	{Name: "mquery.waves_per_op", Unit: "count", Better: "lower"},
	{Name: "mquery.max_visited_over_budget", Unit: "ratio", Better: "lower"},
	// mutate: the write path through Client.Mutate.
	{Name: "mutate.lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate.applied_per_s", Unit: "1/s", Better: "higher"},
	{Name: "read.lat_p50_ms", Unit: "ms", Better: "lower"},
	// core: the virtual-time engine on the same queries.
	{Name: "core.exec_wall_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.virtual_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "core.model_ratio", Unit: "ratio", Better: "lower"},
	// set-up breakdown.
	{Name: "setup.gen_s", Unit: "s", Better: "lower"},
	{Name: "setup.spawn_s", Unit: "s", Better: "lower"},
	{Name: "setup.load_s", Unit: "s", Better: "lower"},
	{Name: "setup.prep_s", Unit: "s", Better: "lower"},
	{Name: "setup.warm_s", Unit: "s", Better: "lower"},
	{Name: "landmark.build_s", Unit: "s", Better: "lower"},
	{Name: "embed.build_s", Unit: "s", Better: "lower"},
	{Name: "embed.bytes", Unit: "B", Better: "lower"},
	// the traced pass itself.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// value is one reported figure on the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// all is everything the run measured, whichever list it is in.
	all measured
}

// measured maps metric names to values while a run is assembled.
type measured map[string]float64

// toResult keeps exactly the metrics defs names, with their units; a
// definition the run did not measure, or measured as NaN or infinite, is
// an error, so a name can never go silently missing from the result line.
func (m measured) toResult(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printMetrics lists every metric by name with its unit.
func printMetrics(w io.Writer, ms map[string]value) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain maps of floats and strings always encode
	}
	return string(b)
}
