// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4), plus the ablations and the beyond-the-paper runs
// (elasticity, storage faults, chaos, drift, multi-anchor queries, k-NN), on
// the synthetic dataset presets.
//
// An experiment is registered by id (fig7, fig8a, ..., table1, ...) and
// returns a Result: its tables as data. The figures that are sweeps — one
// parameter x a set of routing policies -> one metric — are entries in the
// sweeps table (sweeps.go), run by one grid runner; adding such a figure is
// adding an entry. Render is the only code that prints. A Scale sizes a
// run, so the same code serves quick benchmark runs and the paper-parameter
// ones (grouting-bench -scale full).
package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
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
	// Seed drives everything.
	Seed int64
}

// Full is the paper-parameter scale (grouting-bench -scale full).
var Full = Scale{
	GraphScale: 1.0, Hotspots: 100, PerHotspot: 10,
	Landmarks: 96, MinSep: 3, Dims: 10, Seed: 42,
}

// Quick is the reduced scale used by `go test -bench` and CI: the same
// code paths, an order of magnitude smaller. Measured: the 250-query
// workload makes 9,968 record accesses on the 19,800-node WebGraph and its
// whole working set is 200 KB of stored records, far inside a processor's
// default cache. In fig9b's sweep, whose capacities are fractions of those
// stored bytes, capacity barely binds: a cache of `ws` bytes holds a share
// of the records (each is charged cache.EntryOverhead besides its bytes),
// and from `ws` to `4ws` the hits rise by at most 3 per policy. A miss is
// a record's first touch on its processor, and that is nearly all the
// policies differ by (a workload shape where capacity binds — more queries
// per hotspot, hotspots revisited, cache at a fraction of the working set —
// is the ROADMAP's "paper's regime" work).
var Quick = Scale{
	GraphScale: 0.33, Hotspots: 25, PerHotspot: 10,
	Landmarks: 16, MinSep: 2, Dims: 6, Seed: 42,
}

// Experiment is one registered table or figure.
type Experiment struct {
	ID    string
	Paper string // which table/figure it reproduces
	Desc  string
	// run computes the result. Views of one sweep (fig8a/fig8b) find its
	// grid in the memo when an earlier view of the same RunAll left it there.
	run func(sc Scale, m memo) (Result, error)
}

// Run runs the experiment on its own.
func (e Experiment) Run(sc Scale) (Result, error) { return e.exec(sc, memo{}) }

func (e Experiment) exec(sc Scale, m memo) (Result, error) {
	res, err := e.run(sc, m)
	res.ID, res.Paper, res.Desc = e.ID, e.Paper, e.Desc
	return res, err
}

// RunAll runs the experiments in order and hands each Result to emit with
// the wall time it took. A grid that several of them are views of is
// computed once. An experiment that fails after measuring (a violated
// invariant) still has its Result emitted, as evidence, before RunAll
// returns the error.
func RunAll(es []Experiment, sc Scale, emit func(Result, time.Duration)) error {
	m := memo{}
	for _, e := range es {
		start := time.Now()
		res, err := e.exec(sc, m)
		if err == nil || len(res.Tables) > 0 {
			emit(res, time.Since(start))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

var registry = map[string]Experiment{}

// register adds an experiment that is not a view of a sweep.
func register(id, paper, desc string, run func(Scale) (Result, error)) {
	registry[id] = Experiment{ID: id, Paper: paper, Desc: desc,
		run: func(sc Scale, _ memo) (Result, error) { return run(sc) }}
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
