// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section 4), plus the ablations DESIGN.md calls out.
// Each runner regenerates the corresponding result rows/series on the
// synthetic dataset presets and prints them in paper-style tables.
//
// Runners are registered by experiment id (fig7, fig8a, ..., table1, ...)
// and parameterised by a Scale so the same code serves quick benchmark
// runs and the paper-parameter ones (grouting-bench -scale full).
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/simnet"
)

// Type aliases keep helper signatures inside this package compact.
type (
	graphT = graph.Graph
	queryT = query.Query
)

// Scale sizes an experiment run.
type Scale struct {
	// GraphScale multiplies each dataset preset's base node count.
	GraphScale float64
	// Hotspots × PerHotspot is the workload size (paper: 100 × 10).
	Hotspots   int
	PerHotspot int
	// Landmarks, MinSep, Dims are the smart-routing defaults for runs that
	// do not sweep them (paper: 96, 3, 10).
	Landmarks int
	MinSep    int
	Dims      int
	// NMIter is the base of the embedding searches' iteration cap
	// (embed.Options adds 12 per dimension); they stop on convergence long
	// before it except at fig12's 15+ dimensions.
	NMIter int
	// Seed drives everything.
	Seed int64
}

// Full is the paper-parameter scale (grouting-bench -scale full).
var Full = Scale{
	GraphScale: 1.0, Hotspots: 100, PerHotspot: 10,
	Landmarks: 96, MinSep: 3, Dims: 10, NMIter: 120, Seed: 42,
}

// Quick is the reduced scale used by `go test -bench` and CI: the same
// code paths, an order of magnitude smaller. The graph scale keeps the
// workload footprint well below the graph size, preserving the locality
// regime the paper's results depend on.
var Quick = Scale{
	GraphScale: 0.33, Hotspots: 25, PerHotspot: 10,
	Landmarks: 16, MinSep: 2, Dims: 6, NMIter: 60, Seed: 42,
}

// Experiment couples a runner with its description.
type Experiment struct {
	ID    string
	Paper string // which table/figure it reproduces
	Desc  string
	Run   func(w io.Writer, sc Scale) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// Get returns the experiment registered under id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// header prints the experiment banner.
func header(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "== %s (%s): %s ==\n", e.ID, e.Paper, e.Desc)
}

// benchDir is where experiments that produce machine-readable artifacts
// (BENCH_<id>.json) write them. Empty — the default — disables emission,
// so unit tests and ad-hoc library callers only get the text tables;
// grouting-bench sets it (default: the working directory).
var benchDir string

// SetBenchDir sets the artifact output directory ("" disables emission).
func SetBenchDir(dir string) { benchDir = dir }

// writeBenchJSON emits v as BENCH_<id>.json under the bench directory and
// notes the path on w. A no-op (reported as skipped) when no directory is
// configured.
func writeBenchJSON(w io.Writer, id string, v any) error {
	if benchDir == "" {
		fmt.Fprintf(w, "BENCH_%s.json: skipped (no bench dir; grouting-bench sets one)\n", id)
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal BENCH_%s.json: %w", id, err)
	}
	path := filepath.Join(benchDir, "BENCH_"+id+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// loadPreset generates a dataset preset at the run's scale.
func loadPreset(d gen.Dataset, sc Scale) (*graph.Graph, error) {
	return gen.Preset(d, sc.GraphScale, sc.Seed)
}

// workload generates the standard r-hop hotspot, h-hop traversal mixture.
func workload(g *graph.Graph, sc Scale, r, h int) []query.Query {
	return query.Hotspot(g, query.WorkloadSpec{
		NumHotspots:       sc.Hotspots,
		QueriesPerHotspot: sc.PerHotspot,
		R:                 r,
		H:                 h,
		Seed:              sc.Seed + 1,
	})
}

// sysConfig builds the standard decoupled configuration for a policy at
// this scale; override fields on the result as needed.
func sysConfig(policy core.Policy, sc Scale) core.Config {
	return core.Config{
		Processors:     7,
		StorageServers: 4,
		Network:        simnet.Infiniband(),
		Policy:         policy,
		Landmarks:      sc.Landmarks,
		MinSeparation:  sc.MinSep,
		Dimensions:     sc.Dims,
		Seed:           sc.Seed,
		EmbedNM:        embed.NMOptions{MaxIter: sc.NMIter},
	}
}

// runPolicy builds a system for cfg and runs the workload.
func runPolicy(g *graph.Graph, cfg core.Config, qs []query.Query) (*core.Report, error) {
	sys, err := core.NewSystem(g, cfg)
	if err != nil {
		return nil, err
	}
	return sys.RunWorkload(qs)
}

// policyLabel renders a policy the way the figures label it.
func policyLabel(p core.Policy) string {
	switch p {
	case core.PolicyNoCache:
		return "NoCache"
	case core.PolicyNextReady:
		return "NextReady"
	case core.PolicyHash:
		return "Hash"
	case core.PolicyLandmark:
		return "Landmark"
	case core.PolicyEmbed:
		return "Embed"
	case core.PolicyStableHash:
		return "StableHash"
	}
	return p.String()
}
