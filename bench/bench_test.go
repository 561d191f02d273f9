package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeScale is the graph the in-process smoke runs use: 1,200 nodes, so a
// whole set-up takes tens of milliseconds.
const smokeScale = 0.02

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	// Quartiles and spread as Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{90, 100, 110, 95, 105}, [3]float64{92.5, 100, 107.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 7, 9}, [3]float64{5, 7, 9}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{90, 100, 110, 95, 105}); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("spread = %v, want 0.15", got)
	}
}

func TestWindowCosts(t *testing.T) {
	// Four windows of ten correct answers at 100 B each; a burst of
	// background I/O in the third. The median window leaves it out.
	var samples []sample
	for i := 0; i < 40; i++ {
		samples = append(samples, sample{done: int64(i)*100 + 50, ok: true})
	}
	samples = append(samples, sample{done: 120, ok: false})
	marks := []usageMark{{at: 0}, {at: 1000, u: procUsage{syscalls: 20, ioBytes: 1000}}, {at: 2000, u: procUsage{syscalls: 40, ioBytes: 2000}},
		{at: 3000, u: procUsage{syscalls: 61, ioBytes: 9000}}, {at: 4000, u: procUsage{syscalls: 81, ioBytes: 10000}}, {at: 4000, u: procUsage{syscalls: 81, ioBytes: 10000}}}
	sys, bytes := windowCosts(marks, samples)
	if want := []float64{2, 2, 2.1, 2}; !reflect.DeepEqual(sys, want) {
		t.Errorf("system calls per answer = %v, want %v", sys, want)
	}
	if want := []float64{100, 100, 700, 100}; !reflect.DeepEqual(bytes, want) {
		t.Errorf("bytes per answer = %v, want %v (an empty window is skipped)", bytes, want)
	}
	if median(bytes) != 100 {
		t.Errorf("median window = %v, want 100", median(bytes))
	}
}

func TestBlockQuantiles(t *testing.T) {
	// Three full blocks of 100 and a ragged tail: the middle block is
	// clean (1..100), the outer two each carry a stall. Every full block
	// gives its own p99, the tail is dropped, and the reported figure is
	// the median block: a stall in most blocks shows.
	var vals []float64
	for b := 0; b < 3; b++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if b != 1 && i > 95 {
				v *= 1000
			}
			vals = append(vals, v)
		}
	}
	vals = append(vals, 0.001, 0.001)
	got := blockQuantiles(vals, 100, 0.99)
	if len(got) != 3 {
		t.Fatalf("%d blocks, want 3", len(got))
	}
	if math.Abs(got[1]-99.01) > 1e-6 || got[0] < 99000 || got[2] < 99000 {
		t.Errorf("block p99s = %v, want a clean middle block between two stalled ones", got)
	}
	if median(got) < 99000 {
		t.Errorf("median block p99 = %v: a stall in two blocks of three must show", median(got))
	}
	if got := blockQuantiles(vals[:50], 100, 0.99); len(got) != 0 {
		t.Errorf("a short phase produced %d blocks", len(got))
	}

	// The open-loop summary reports the plain p99 when the phase is
	// shorter than one block of p99Block samples.
	var samples []sample
	for i, v := range vals[:300] {
		due := int64(i) * 1e6
		samples = append(samples, sample{due: due, sent: due, done: due + int64(v*1e6), ok: true})
	}
	if st := summarizeOpen(samples, nil); st.p99Blocks != 0 || st.p99MS != st.p99AllMS {
		t.Errorf("short phase: p99 %v over %d blocks, want the plain p99 %v", st.p99MS, st.p99Blocks, st.p99AllMS)
	}
}

func TestWaitUntilOnIdleLoop(t *testing.T) {
	// On an idle loop the schedule is never early and the typical send
	// is late by far less than a millisecond timer tick.
	var late []float64
	next := time.Now()
	for i := 0; i < 200; i++ {
		next = next.Add(time.Millisecond)
		waitUntil(next)
		d := time.Since(next)
		if d < 0 {
			t.Fatalf("waitUntil returned %v early", -d)
		}
		late = append(late, float64(d)/1e3)
	}
	if m := median(late); m > 500 {
		t.Errorf("median lateness %v us, want well under a millisecond", m)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := prepareInputs(w, 3, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := prepareInputs(w, 3, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.queries, b.queries) || !reflect.DeepEqual(a.want, b.want) || !reflect.DeepEqual(a.slots, b.slots) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		c, err := prepareInputs(w, 4, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.queries, c.queries) {
			t.Errorf("%s: different seeds gave the same query list", w.name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// writeBenchmarkJSON regenerates BENCHMARK.json from the benchmark's own
// definitions; run the tests with BENCH_UPDATE=1 after changing them.
func writeBenchmarkJSON(t *testing.T) {
	bf := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		bf.Workloads = append(bf.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	if os.Getenv("BENCH_UPDATE") != "" {
		writeBenchmarkJSON(t)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q (%q) breaks the naming rules", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	// Every emitted name appears in the file, and the other way round.
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the benchmark's definitions:\n file %+v\n code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's definitions")
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q breaks the naming rules", w.name)
		}
		seen[w.name] = true
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the benchmark %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	if bf.RunSeconds != defaultSeconds || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bf.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command = %v", bf.Command)
	}
}

func smokeConfig(t *testing.T, w *workload, trace bool) runConfig {
	return runConfig{
		w: w, seed: 5, seconds: 1, trace: trace, outDir: t.TempDir(),
		scale: smokeScale, spawn: spawnInProcess,
	}
}

// TestSmoke runs every workload end to end for one second against an
// in-process deployment on a tiny graph, with the oracle gate on, and
// checks that exactly the promised metrics come out.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(context.Background(), smokeConfig(t, w, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit || !(v.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced pass where every probe has work to do:
// the multi-anchor mix. It checks the per-layer names and the trace file.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced pass takes 6 s")
	}
	t.Parallel()
	cfg := smokeConfig(t, workloadByName("multi_knn"), true)
	res, err := runWorkload(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run: %d of %d failed", res.Failed, res.Attempted)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("metric %s missing from the traced run", d.Name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if v := res.Metrics["mquery.subtasks_per_op"].Value; v <= 1 {
		t.Errorf("mquery.subtasks_per_op = %v, want > 1 on the multi-anchor mix", v)
	}
	data, err := os.ReadFile(cfg.outDir + "/trace_multi_knn.json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, s := range tf.Spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
		if s.Name == "client.execute" && s.Parent == 0 {
			roots++
		}
	}
	if roots != traceQueries {
		t.Errorf("%d root spans, want %d", roots, traceQueries)
	}
	if _, ok := tf.SelfUSP50["client.execute"]; !ok {
		t.Errorf("trace file has no self time for client.execute")
	}
}

// TestWrongOracleFails injects one wrong reference answer and expects the
// run to be refused by the warm pass and, past it, counted as failed by
// the timed phase.
func TestWrongOracleFails(t *testing.T) {
	w := workloadByName("point_hot")
	cfg := smokeConfig(t, w, false)
	in, err := prepareInputs(w, cfg.seed, cfg.scale)
	if err != nil {
		t.Fatal(err)
	}
	good := in.want[0]
	in.want[0].Count += 1000
	in.want[0].EndNode += 1000
	in.want[0].Reachable = !in.want[0].Reachable
	if _, err := runPrepared(context.Background(), cfg, in, io.Discard); err == nil {
		t.Fatal("a run with a wrong oracle answer was accepted")
	}

	in.want[0] = good
	c, err := setUp(context.Background(), in, cfg.seed, cfg.outDir, cfg.spawn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	in.want[0].Count += 1000
	in.want[0].EndNode += 1000
	in.want[0].Reachable = !in.want[0].Reachable
	p := runClosed(context.Background(), &driver{in: in, cl: c.client}, 1, 200*time.Millisecond, 0, nil)
	if _, failed := p.counts(); failed == 0 {
		t.Error("the closed loop counted no failure against a wrong oracle answer")
	}
	if code := benchMain([]string{"-workload", "no_such_workload"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

func TestGeneratorVerdict(t *testing.T) {
	ok := openStats{p50MS: 1, lagP99US: 50}
	if v := generatorVerdict(ok, &phase{backlog: 3, lastLagUS: 20}, 64); v != "" {
		t.Errorf("a punctual generator was disqualified: %s", v)
	}
	if v := generatorVerdict(openStats{p50MS: 1, lagP99US: 150}, &phase{}, 64); !strings.Contains(v, "generator late") {
		t.Errorf("lag p99 of 15%% of the median latency passed: %q", v)
	}
	if v := generatorVerdict(ok, &phase{backlog: 64}, 64); !strings.Contains(v, "backlog") {
		t.Errorf("a full in-flight window at the end of the phase passed: %q", v)
	}
	if v := generatorVerdict(ok, &phase{lastLagUS: 20000}, 64); !strings.Contains(v, "backlog") {
		t.Errorf("a schedule 20 ms behind at the end of the phase passed: %q", v)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "client.execute", StartNS: 0, EndNS: 100_000},
		{ID: 2, Parent: 1, Name: "processor.execute", StartNS: 200_000, EndNS: 260_000},
		{ID: 3, Parent: 2, Name: "cache.get", StartNS: 300_000, EndNS: 310_000},
		{ID: 4, Parent: 2, Name: "mquery.run", StartNS: 320_000, EndNS: 400_000}, // replay slower than its parent
	}
	got := selfTimes(spans)
	want := map[string]float64{"client.execute": 40, "processor.execute": 0, "cache.get": 10, "mquery.run": 80}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	qps := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		def        metricDef
		base, now  float64
		nowSpread  float64
		baseSpread float64
		want       string
	}{
		{qps, 1000, 950, 0.02, 0.02, "ok"},
		{qps, 1000, 850, 0.02, 0.02, "REGRESSION"},
		{qps, 1000, 1200, 0.02, 0.02, "improved"},
		{lat, 1.0, 1.2, 0.02, 0.02, "REGRESSION"},
		{lat, 1.0, 1.2, 0.30, 0.02, "unresolved"},
		{lat, 1.0, 0.8, 0.02, 0.30, "unresolved"},
	} {
		if got := verdict(c.def, c.base, c.baseSpread, summary{Median: c.now, Spread: c.nowSpread}, true); got != c.want {
			t.Errorf("verdict(%s %v -> %v) = %s, want %s", c.def.Name, c.base, c.now, got, c.want)
		}
	}
	// A latency measured while the generator ran late is never judged.
	if got := verdict(lat, 1.0, 0.02, summary{Median: 1.2, Spread: 0.02}, false); !strings.HasPrefix(got, "unresolved") {
		t.Errorf("a regression measured by a late generator was judged: %s", got)
	}
	if allValid([]float64{1, 1, 0}) || allValid(nil) || !allValid([]float64{1, 1}) {
		t.Error("allValid must demand a verdict of 1 from every run of a set")
	}
}
