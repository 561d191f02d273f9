package experiments

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// tiny is an even smaller scale than Quick, for unit tests.
var tiny = Scale{
	GraphScale: 0.02, Hotspots: 6, PerHotspot: 4,
	Landmarks: 6, MinSep: 1, Dims: 3, Seed: 42,
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must have a runner.
	want := []string{
		"table1", "table2", "table3",
		"fig7", "fig8a", "fig8b", "fig8c", "fig9a", "fig9b", "fig9c",
		"fig10", "fig11a", "fig11b", "fig12a", "fig12b", "fig13a", "fig13b",
		"fig14", "fig15", "fig16",
		"ablation-stealing", "ablation-partition", "ablation-batch", "ablation-failure",
		"elastic", "storagefault", "chaos", "drift", "patterns", "knn",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		ids := make([]string, 0)
		for _, e := range All() {
			ids = append(ids, e.ID)
		}
		t.Errorf("registry has %d experiments, want %d: %v", len(All()), len(want), ids)
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("All() not sorted: %q >= %q", all[i-1].ID, all[i].ID)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("fig99"); ok {
		t.Fatal("unknown id found")
	}
}

// runSuite runs every registered experiment at tiny scale on the given
// number of workers.
func runSuite(workers int) ([]Result, error) {
	SetParallelism(workers)
	defer SetParallelism(1)
	var out []Result
	err := RunAll(All(), tiny, func(r Result, _ time.Duration) { out = append(out, r) })
	return out, err
}

// serialSuite is runSuite(1), shared by the tests that read it.
var serialSuite = sync.OnceValues(func() ([]Result, error) { return runSuite(1) })

// TestSerialParallelIdentical asserts the engine-level determinism
// invariant of the parallel harness: because every cell owns a private
// System and virtual Timeline, every experiment's Result is the same data
// at any worker count (table2's wall times apart).
func TestSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite twice")
	}
	serial, err := serialSuite()
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	parallel, err := runSuite(4)
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("%d results serially, %d in parallel", len(serial), len(parallel))
	}
	for i := range serial {
		if a, b := withoutWallTime(serial[i]), withoutWallTime(parallel[i]); !reflect.DeepEqual(a, b) {
			t.Errorf("%s differs between 1 and 4 workers:\n--- serial ---\n%+v\n--- parallel ---\n%+v", a.ID, a, b)
		}
	}
}

// withoutWallTime returns r with its wall-clock cells zeroed: table2's
// measured column is the one place the suite reports real time.
func withoutWallTime(r Result) Result {
	if r.ID != "table2" {
		return r
	}
	tab := r.Tables[0]
	rows := make([][]any, len(tab.Rows))
	for i, row := range tab.Rows {
		rows[i] = slices.Clone(row)
		if _, wall := row[1].(time.Duration); wall {
			rows[i][1] = time.Duration(0)
		}
	}
	tab.Rows = rows
	r.Tables = []Table{tab}
	return r
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(1)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(0) // 0 selects GOMAXPROCS
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(0)", got)
	}
}

func TestRunCellsOrderAndErrors(t *testing.T) {
	defer SetParallelism(1)
	SetParallelism(4)
	results := make([]int, 100)
	cells := make([]func() error, 100)
	for i := range cells {
		i := i
		cells[i] = func() error { results[i] = i * i; return nil }
	}
	if err := runCells(cells); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*i {
			t.Fatalf("cell %d wrote %d", i, r)
		}
	}
	// The lowest-indexed error wins, matching serial semantics.
	boom7 := fmt.Errorf("cell 7 failed")
	boom3 := fmt.Errorf("cell 3 failed")
	cells[7] = func() error { return boom7 }
	cells[3] = func() error { return boom3 }
	if err := runCells(cells); err != boom3 {
		t.Fatalf("got error %v, want %v", err, boom3)
	}
}

// column returns the cells of tab's named column keyed by each row's first
// cell as printed.
func column(t *testing.T, tab Table, name string) map[string]any {
	t.Helper()
	for j, c := range tab.Columns {
		if c.Name == name {
			cells := make(map[string]any, len(tab.Rows))
			for _, row := range tab.Rows {
				cells[fmt.Sprint(row[0])] = row[j]
			}
			return cells
		}
	}
	t.Fatalf("no column %q in %v", name, tab.Columns)
	return nil
}

// runQuick runs one experiment at Quick scale and returns its first table;
// a failure prints what it measured.
func runQuick(t *testing.T, id string) Table {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	res, err := e.Run(Quick)
	if err != nil {
		var buf bytes.Buffer
		Render(&buf, res)
		t.Fatalf("%s failed: %v\n%s", id, err, buf.String())
	}
	return res.Tables[0]
}

// TestDriftRecoversGoodput is the adaptive-placement acceptance run: at
// the recorded quick scale, the bounded online planner must close at
// least 90% of the static→re-load goodput gap after the hotspots move
// (that it never exceeds its per-cycle migration budget the run checks
// itself).
func TestDriftRecoversGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full three-cell drift comparison")
	}
	tab := runQuick(t, "drift")
	tail, moved := column(t, tab, "tail q/s"), column(t, tab, "moved")
	static, adaptive, reload := tail["static"].(float64), tail["adaptive"].(float64), tail["re-load"].(float64)
	if recovery := (adaptive - static) / (reload - static); reload > static && recovery < 0.90 {
		t.Errorf("recovery fraction %.3f < 0.90", recovery)
	}
	if adaptive < static {
		t.Errorf("adaptive placement lost goodput: tail %.0f q/s against static's %.0f", adaptive, static)
	}
	if moved["adaptive"].(int64) == 0 {
		t.Error("adaptive cell never migrated anything — the experiment is vacuous")
	}
	if n := moved["static"].(int64); n != 0 {
		t.Errorf("static cell migrated %d records; placement must not move", n)
	}
}

// A drift run whose re-load is no better than static has no gap to close:
// the fraction is worded undefined and the adaptive − static difference is
// printed, so a loss never reads as a full recovery. (Figures from a run at
// storage affinity 1.0, where moving records only costs.)
func TestRecoveryLineWithoutGap(t *testing.T) {
	if got, want := recoveryLine(4889, 4485, 4487), "recovery fraction: undefined (re-load − static -402 q/s); adaptive − static -404 q/s under the"; got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
	if got, want := recoveryLine(2319, 4290, 4290), "recovery fraction: 1.00 of the static→re-load goodput gap closed by the"; got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

// TestPatternsRespectsBudget is the multi-anchor acceptance run: every
// policy answers the mixed workload oracle-identically, the multi-anchor
// path genuinely executes and no BoundedReach subtask exceeds the
// per-partition visit budget (all checked inside the cells, which fail the
// run), for every policy of the comparison.
func TestPatternsRespectsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full four-policy patterns comparison")
	}
	tab := runQuick(t, "patterns")
	waves, visited := column(t, tab, "waves"), column(t, tab, "max-visited")
	if len(waves) != len(patternsPolicies) {
		t.Errorf("%d policies measured, want %d", len(waves), len(patternsPolicies))
	}
	for name, w := range waves {
		if w.(int64) == 0 || visited[name].(int) > patternsBudget {
			t.Errorf("%s: waves=%v max-visited=%v (budget %d)", name, w, visited[name], patternsBudget)
		}
	}
}

// TestKNNMatchesOracle is the k-nearest acceptance run: every policy
// answers the KNN-heavy mix oracle-identically with one provider-shared
// embedding, the distributed candidate path genuinely executes, and at
// least one answer per cell is non-empty (all checked inside the cells,
// which fail the run), for every policy of the comparison.
func TestKNNMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full four-policy knn comparison")
	}
	tab := runQuick(t, "knn")
	subtasks, nonEmpty := column(t, tab, "subtasks"), column(t, tab, "non-empty")
	if len(subtasks) != len(knnPolicies) {
		t.Errorf("%d policies measured, want %d", len(subtasks), len(knnPolicies))
	}
	for name, n := range subtasks {
		if n.(int64) == 0 || nonEmpty[name].(int) == 0 {
			t.Errorf("%s: subtasks=%v non-empty=%v", name, n, nonEmpty[name])
		}
	}
}

// TestPaperClaims is the first reader of the figures as data: seven of the
// paper's claims as predicates over Result rows, each pinned to the verdict
// it has at Quick scale today. A change that flips one edits the pin and
// says so.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven claims' figures at quick scale")
	}
	claims := []struct {
		name  string
		fig   string
		holds bool
		eval  func(t *testing.T, res Result) bool
	}{
		// Reuse captured: how many of the hits one processor's cache gives
		// (every repeat is a hit there) Embed still gets on seven. 0.44
		// before the embedding's neighbour-averaging pass, 0.69 with it,
		// 0.67 since landmark MDS replaced the searches (whose hits at P =
		// 2–6 rose: 3,136 / 2,923 / 2,777 / 2,508 / 2,680 → 3,514 / 3,112 /
		// 2,858 / 2,830 / 2,924).
		{"fig8b/embed-keeps-hits", "fig8b", false, func(t *testing.T, res Result) bool {
			kept := column(t, res.Tables[0], "Embed-captured")["7"].(float64)
			t.Logf("hits(Embed, P=7) / hits(P=1) = %.2f", kept)
			return kept >= 0.75
		}},
		{"fig14/ordering", "fig14", true, func(t *testing.T, res Result) bool {
			ordered := true
			for _, tab := range res.Tables {
				rate := func(policy string) float64 { return column(t, tab, "hit-rate")[policy].(float64) }
				ordered = ordered && rate("NoCache") < rate("NextReady") && rate("NextReady") < rate("Hash") &&
					rate("Hash") < min(rate("Landmark"), rate("Embed"))
			}
			return ordered
		}},
		// Capacity binds since records store no zero edge labels: the
		// working set's stored bytes (ws) fell 337,209 → 199,551 B while each
		// entry is still charged 129 B besides its bytes, so a cache of ws
		// bytes holds a smaller share of the working set's records than
		// before, and NextReady and Hash gain a few hits from ws to 4ws
		// (832 → 835 and 985 → 987). With 55-B records and 120-B entries
		// every policy's hits were equal at ws and 4ws.
		{"fig9b/capacity-binds", "fig9b", true, func(t *testing.T, res Result) bool {
			tab := res.Tables[0]
			var ws, ws4 []any
			for _, row := range tab.Rows {
				switch label := row[0].(string); {
				case strings.HasPrefix(label, "ws ("):
					ws = row
				case strings.HasPrefix(label, "4ws ("):
					ws4 = row
				}
			}
			binds := false
			for j := 1; j < len(tab.Columns); j++ {
				binds = binds || ws4[j].(int64) > ws[j].(int64)
			}
			return binds
		}},
		// The paper judges an embedding by the error between nearby node
		// pairs. Held over the searched rows with the pass (0.633 / 0.544 /
		// 0.500 / 0.518 / 0.507 at D = 2 … 20; above 0.84 and rising with D
		// without it). Over the landmark-MDS rows it is 0.840 / 0.722 /
		// 0.552 / 0.490 / 0.490: lower from fifteen dimensions on, and
		// above 0.7 at two and five — classical MDS fits squared distances,
		// so with few dimensions it spends them on the long ones.
		{"fig12a/pair-error-falls", "fig12a", false, func(t *testing.T, res Result) bool {
			pairErr := column(t, res.Tables[0], "2-hop-pair-error")
			falls := pairErr["10"].(float64) < pairErr["2"].(float64)
			for _, e := range pairErr {
				falls = falls && e.(float64) <= 0.7
			}
			return falls
		}},
		// The figure's shape: the pair error does not rise as dimensions are
		// added (none more than 0.01 above the one before). The searched rows
		// rose from 10 to 15 (0.500 → 0.518); the triangulated ones do not —
		// past the last positive eigenvalue a dimension is 0 and changes
		// nothing.
		{"fig12a/error-falls-with-dimensions", "fig12a", true, func(t *testing.T, res Result) bool {
			pairErr := column(t, res.Tables[0], "2-hop-pair-error")
			t.Logf("2-hop pair error by dimensions: %v", pairErr)
			falls, prev := true, math.Inf(1)
			for _, d := range []string{"2", "5", "10", "15", "20"} {
				falls = falls && pairErr[d].(float64) <= prev+0.01
				prev = pairErr[d].(float64)
			}
			return falls
		}},
		{"fig10/preprocessing-helps", "fig10", true, func(t *testing.T, res Result) bool {
			embed := column(t, res.Tables[0], "Embed")
			return embed["100"].(time.Duration) <= embed["20"].(time.Duration)
		}},
		// Both smart routings break even with less cache than both baselines.
		// Charged encoded sizes, Embed did (4,611 B against Hash's 5,269) and
		// Landmark, at 5,928, did not. Charged 16 + 8 per decoded edge,
		// neither did: Embed 12,652 B, Landmark and Hash 11,387. Cached as
		// stored bytes plus a measured 120-B entry, Embed did (5,928 B
		// against Hash's 9,551) and Landmark, at 12,186, did not. With
		// records that store no zero edge labels (33 B instead of 55 on
		// average) and 129-B entries both do: Embed 5,262, Landmark 5,457,
		// Hash 9,160, NextReady 9,939. A byte buys more records, and
		// Landmark's response at equal capacity sits within a few µs of the
		// no-cache target from 5 to 14 KB (277.8 µs at 5,000 B, 276.1 at
		// 6,000, 274.3 at 10,000 against 276.0), so the bisection, whose
		// probes are fractions of a working set that shrank with the records,
		// now meets a capacity under the target at 5,457 B.
		{"fig9c/smart-needs-less", "fig9c", true, func(t *testing.T, res Result) bool {
			need := column(t, res.Tables[0], "min-cache-bytes")
			t.Logf("min cache bytes: %v", need)
			return max(need["Landmark"].(int64), need["Embed"].(int64)) < min(need["NextReady"].(int64), need["Hash"].(int64))
		}},
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			e, _ := Get(c.fig)
			res, err := e.Run(Quick)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.eval(t, res); got != c.holds {
				t.Errorf("claim holds = %v, pinned %v", got, c.holds)
			}
		})
	}
}

// TestEveryExperimentRuns runs each experiment on its own at tiny scale, in
// parallel: the Result must be well formed and the same data the experiment
// yields inside RunAll, where views of one grid share it. What it prints
// is TestSuiteGolden's business.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests take a few seconds")
	}
	suite, err := serialSuite()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res, err := e.Run(tiny)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if res.ID != e.ID || len(res.Tables) == 0 {
				t.Fatalf("result of %s is %q with %d tables", e.ID, res.ID, len(res.Tables))
			}
			for _, tab := range res.Tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %q has no rows", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("table %q: row %v has %d cells for %d columns", tab.Title, row, len(row), len(tab.Columns))
					}
				}
			}
			if a, b := withoutWallTime(res), withoutWallTime(suite[i]); !reflect.DeepEqual(a, b) {
				t.Errorf("%s on its own differs from its run in the suite:\n%+v\n%+v", e.ID, a, b)
			}
		})
	}
}

// TestRunAllEmitsEvidenceThenFails: an experiment that fails after
// measuring has its Result emitted before RunAll returns the error under
// the experiment's id; nothing after it runs.
func TestRunAllEmitsEvidenceThenFails(t *testing.T) {
	boom := fmt.Errorf("invariant violated")
	es := []Experiment{
		{ID: "ok", run: func(Scale, memo) (Result, error) { return Result{Tables: []Table{{}}}, nil }},
		{ID: "measured", run: func(Scale, memo) (Result, error) { return Result{Tables: []Table{{}}}, boom }},
		{ID: "never", run: func(Scale, memo) (Result, error) { t.Error("ran past a failure"); return Result{}, nil }},
	}
	var emitted []string
	err := RunAll(es, tiny, func(r Result, _ time.Duration) { emitted = append(emitted, r.ID) })
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "measured: ") {
		t.Errorf("RunAll error = %v", err)
	}
	if !slices.Equal(emitted, []string{"ok", "measured"}) {
		t.Errorf("emitted %v", emitted)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/suite_tiny.golden from what the suite prints now")

// maskGolden removes table2's measured column from the suite's output: it is
// wall time (the durations go, and with them the padding their width sets).
func maskGolden(out string) string {
	durations := regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)
	padding := regexp.MustCompile(`  +|--+`)
	var b strings.Builder
	inTable2 := false
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "== ") {
			inTable2 = strings.HasPrefix(line, "== table2 ")
		} else if inTable2 {
			line = padding.ReplaceAllString(durations.ReplaceAllString(line, "<wall>"), " ")
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestSuiteGolden pins what every registered experiment prints at tiny
// scale, byte for byte, to the output of the hand-written runners this
// package had before the figures became a sweep table.
func TestSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite at tiny scale")
	}
	suite, err := serialSuite()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, res := range suite {
		if err := Render(&buf, res); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	got := maskGolden(buf.String())
	const path = "testdata/suite_tiny.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("suite output differs from %s:\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines at which two texts differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		}
	}
	return b.String()
}
