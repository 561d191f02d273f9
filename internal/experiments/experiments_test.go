package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tiny is an even smaller scale than Quick, for unit tests.
var tiny = Scale{
	GraphScale: 0.02, Hotspots: 6, PerHotspot: 4,
	Landmarks: 6, MinSep: 1, Dims: 3, NMIter: 40, Seed: 42,
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

// TestSerialParallelIdentical asserts the engine-level determinism
// invariant of the parallel harness: because every cell owns a private
// System and virtual Timeline, a figure's Report-derived output is
// bit-identical at any worker count.
func TestSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure twice")
	}
	e, ok := Get("fig8a")
	if !ok {
		t.Fatal("fig8a not registered")
	}
	defer SetParallelism(1)
	outputs := make([]string, 2)
	for i, workers := range []int{1, 4} {
		SetParallelism(workers)
		var buf bytes.Buffer
		if err := e.Run(&buf, tiny); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outputs[i] = buf.String()
	}
	if outputs[0] != outputs[1] {
		t.Errorf("serial and parallel harness outputs differ:\n--- serial ---\n%s\n--- parallel ---\n%s", outputs[0], outputs[1])
	}
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

// TestDriftRecoversGoodput is the adaptive-placement acceptance run: at
// the recorded quick scale, the bounded online planner must close at
// least 90% of the static→re-load goodput gap after the hotspots move,
// without ever exceeding its per-cycle migration budget.
func TestDriftRecoversGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full three-cell drift comparison")
	}
	var buf bytes.Buffer
	rep, err := driftRun(&buf, Quick)
	if err != nil {
		t.Fatalf("drift failed: %v\n%s", err, buf.String())
	}
	if rep.Recovery < 0.90 {
		t.Errorf("recovery fraction %.3f < 0.90\n%s", rep.Recovery, buf.String())
	}
	if !rep.BudgetRespected {
		t.Errorf("migration volume exceeded the planner budget\n%s", buf.String())
	}
	ad := rep.Cells["adaptive"]
	if ad.Moved.Moved == 0 {
		t.Error("adaptive cell never migrated anything — the experiment is vacuous")
	}
	if st := rep.Cells["static"]; st.Moved.Moved != 0 {
		t.Errorf("static cell migrated %d records; placement must not move", st.Moved.Moved)
	}
}

// TestPatternsRespectsBudget is the multi-anchor acceptance run: every
// policy answers the mixed workload oracle-identically (checked inside the
// cells), the multi-anchor path genuinely executes (subtasks and waves
// observed per policy), and no BoundedReach subtask ever exceeds the
// per-partition visit budget.
func TestPatternsRespectsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full four-policy patterns comparison")
	}
	var buf bytes.Buffer
	rep, err := patternsRun(&buf, Quick)
	if err != nil {
		t.Fatalf("patterns failed: %v\n%s", err, buf.String())
	}
	if !rep.BudgetRespected {
		t.Errorf("a subtask exceeded the per-partition visit budget\n%s", buf.String())
	}
	if rep.MultiAnchor == 0 {
		t.Error("workload contains no multi-anchor queries — the experiment is vacuous")
	}
	for name, m := range rep.Cells {
		if m.Subtasks == 0 || m.Waves == 0 {
			t.Errorf("%s: subtasks=%d waves=%d — multi-anchor path not exercised", name, m.Subtasks, m.Waves)
		}
		if m.MaxVisited > rep.VisitBudget {
			t.Errorf("%s: max visited %d exceeds budget %d", name, m.MaxVisited, rep.VisitBudget)
		}
	}
}

// TestKNNMatchesOracle is the k-nearest acceptance run: every policy
// answers the KNN-heavy mix oracle-identically with one provider-shared
// embedding (checked inside the cells), the distributed candidate path
// genuinely executes, and at least one answer per cell is non-empty.
func TestKNNMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full four-policy knn comparison")
	}
	var buf bytes.Buffer
	rep, err := knnRun(&buf, Quick)
	if err != nil {
		t.Fatalf("knn failed: %v\n%s", err, buf.String())
	}
	if rep.KNNQueries == 0 {
		t.Error("workload contains no KNearest queries — the experiment is vacuous")
	}
	for name, m := range rep.Cells {
		if m.Subtasks == 0 {
			t.Errorf("%s: no subtasks — distributed candidate generation not exercised", name)
		}
		if m.NonEmpty == 0 {
			t.Errorf("%s: every KNearest answer empty — ranking not exercised", name)
		}
	}
}

// TestEveryExperimentRuns runs each experiment on its own at tiny scale, in
// parallel; what it prints is TestSuiteGolden's business.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests take a few seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			if err := e.Run(io.Discard, tiny); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/suite_tiny.golden from what the suite prints now")

// maskGolden removes from the suite's output what is not the experiments'
// to decide: table2's measured column is wall time (the durations go, and
// with them the padding their width sets), and the notices about artifact
// files are the caller's.
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
		if strings.HasPrefix(line, "BENCH_") && strings.Contains(line, ": skipped") {
			continue
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
	var buf bytes.Buffer
	for _, e := range All() {
		if err := e.Run(&buf, tiny); err != nil {
			t.Fatalf("%s failed: %v", e.ID, err)
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
