package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/gen"
)

// sweep is one grid of the evaluation. For every table — a dataset under a
// workload — each axis value x each policy is one cell: a system built from
// sysConfig with the axis value set on it, run over the workload. A view
// tabulates the grid as one registered figure.
type sweep struct {
	datasets []gen.Dataset // one table each; nil is WebGraph alone
	hops     [][2]int      // (r, h) hotspot workloads, one table each; nil is (2, 2) alone
	axis     axis          // the zero axis is a single point, the default configuration
	policies []core.Policy
	// ref, when set, is run once per table at the default configuration:
	// the Hash-reference column, fig9a's no-cache line. With refProcs it
	// runs on that many processors instead — on one, whose cache sees every
	// repeat, its hits are the reuse the workload has (captured).
	ref      *core.Policy
	refProcs int
	views    []view
}

// axis is the parameter a sweep varies.
type axis struct {
	name   string
	values []any
	// derive replaces values where they depend on the graph or the workload.
	derive func(g *graphT, sc Scale, qs []queryT) ([]any, error)
	set    func(cfg *core.Config, v any)
	// mayFail marks an axis whose larger values a small graph cannot
	// satisfy (too few landmarks): such a cell reads "n/a" instead of
	// failing the run, and the rows end with the first one that has any.
	mayFail bool
}

// view is one figure over a sweep's grid. Rows run down the axis and a
// column picks from the row's reports by policy index; with byPolicy rows
// run down the policies and a column picks by axis index.
type view struct {
	id, paper, desc string
	byPolicy        bool
	cols            []col
	// lead computes a first note line from the measurements; notes follow
	// it, above the tables unless notesLast.
	lead      func(t gridTable) string
	notes     []string
	notesLast bool
}

// gridTable is the measurements of one table of a sweep.
type gridTable struct {
	title  string
	points []any            // axis values; a single nil without an axis
	reps   [][]*core.Report // [point][policy]; nil where a mayFail cell was infeasible
	ref    *core.Report
}

// memo holds, within one RunAll, the grids of sweeps that have several views.
type memo map[*sweep][]gridTable

// row is what a column computes a cell from: the row's axis value, its
// reports across the table's other dimension, and the reference run.
type row struct {
	v    any
	reps []*core.Report
	ref  *core.Report
}

type col struct {
	Column
	val func(row) any
}

// metric reads one measurement off a report.
type metric struct {
	format string
	of     func(*core.Report) any
}

var (
	qps      = metric{of: func(r *core.Report) any { return r.ThroughputQPS }}
	respTime = metric{of: func(r *core.Report) any { return r.MeanResponse }}
	hits     = metric{of: func(r *core.Report) any { return r.CacheHits }}
	misses   = metric{of: func(r *core.Report) any { return r.CacheMisses }}
	hitRate  = metric{"%.3f", func(r *core.Report) any { return r.HitRate }}
	stolen   = metric{of: func(r *core.Report) any { return r.Stolen }}
	diverted = metric{of: func(r *core.Report) any { return r.Diverted }}
)

// at is the metric of the row's j-th report.
func (m metric) at(name string, j int) col {
	return col{Column{name, m.format}, func(r row) any {
		if r.reps[j] == nil {
			return "n/a"
		}
		return m.of(r.reps[j])
	}}
}

// perPolicy is one column per policy, the shape of most figures.
func (m metric) perPolicy(ps []core.Policy) []col {
	cols := make([]col, len(ps))
	for j, p := range ps {
		cols[j] = m.at(policyLabel(p), j)
	}
	return cols
}

// withHashRef is perPolicy plus the reference run's column.
func (m metric) withHashRef(ps []core.Policy) []col {
	return append(m.perPolicy(ps), col{Column{"Hash-reference", m.format}, func(r row) any { return m.of(r.ref) }})
}

// ratio divides a measurement of the row's num-th report by its den-th.
func ratio(name, format string, num, den int, of func(*core.Report) float64) col {
	return col{Column{name, format}, func(r row) any { return of(r.reps[num]) / of(r.reps[den]) }}
}

// captured is reuse captured, the routing-quality number that does not depend
// on how much reuse a workload happens to have: the cache hits of the row's
// j-th report over those of the sweep's one-processor reference run.
func captured(name string, j int) col {
	return col{Column{name, "%.2f"}, func(r row) any { return float64(r.reps[j].CacheHits) / float64(r.ref.CacheHits) }}
}

func vals[T any](vs ...T) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

func init() {
	for i := range sweeps {
		s := &sweeps[i]
		for _, v := range s.views {
			registry[v.id] = Experiment{ID: v.id, Paper: v.paper, Desc: v.desc, run: func(sc Scale, m memo) (Result, error) {
				grid, ok := m[s]
				if !ok {
					var err error
					if grid, err = s.run(sc); err != nil {
						return Result{}, err
					}
					if len(s.views) > 1 {
						m[s] = grid
					}
				}
				return s.tabulate(v, grid), nil
			}}
		}
	}
}

// run measures the sweep's grid: it loads each dataset and generates its
// workloads, then runs every cell of every table as one fan-out.
func (s *sweep) run(sc Scale) ([]gridTable, error) {
	datasets, hops := s.datasets, s.hops
	if datasets == nil {
		datasets = []gen.Dataset{gen.WebGraph}
	}
	if hops == nil {
		hops = [][2]int{{2, 2}}
	}
	tables := make([]gridTable, len(datasets)*len(hops))
	graphs := make([]*graphT, len(tables))
	workloads := make([][]queryT, len(tables))
	loads := make([]func() error, len(datasets))
	for di, d := range datasets {
		loads[di] = func() error {
			g, err := loadPreset(d, sc)
			if err != nil {
				return err
			}
			for hi, rh := range hops {
				k := di*len(hops) + hi
				t := &tables[k]
				switch {
				case len(datasets) > 1:
					t.title = string(d)
				case len(hops) > 1:
					t.title = fmt.Sprintf("%d-hop hotspot, %d-hop traversal", rh[0], rh[1])
				}
				graphs[k], workloads[k] = g, workload(g, sc, rh[0], rh[1])
				switch {
				case s.axis.set == nil:
					t.points = []any{nil}
				case s.axis.derive != nil:
					if t.points, err = s.axis.derive(g, sc, workloads[k]); err != nil {
						return err
					}
				default:
					t.points = s.axis.values
				}
			}
			return nil
		}
	}
	if err := runCells(loads); err != nil {
		return nil, err
	}

	var cells []func() error
	for k := range tables {
		t := &tables[k]
		if s.ref != nil {
			cells = append(cells, func() (err error) {
				cfg := sysConfig(*s.ref, sc)
				if s.refProcs > 0 {
					cfg.Processors = s.refProcs
				}
				t.ref, err = runPolicy(graphs[k], cfg, workloads[k])
				return err
			})
		}
		t.reps = make([][]*core.Report, len(t.points))
		for p, v := range t.points {
			t.reps[p] = make([]*core.Report, len(s.policies))
			for j, policy := range s.policies {
				cells = append(cells, func() error {
					cfg := sysConfig(policy, sc)
					if s.axis.set != nil {
						s.axis.set(&cfg, v)
					}
					rep, err := runPolicy(graphs[k], cfg, workloads[k])
					if err != nil && !s.axis.mayFail {
						return err
					}
					t.reps[p][j] = rep
					return nil
				})
			}
		}
	}
	return tables, runCells(cells)
}

// tabulate lays a view's columns over the grid.
func (s *sweep) tabulate(v view, grid []gridTable) Result {
	var res Result
	for _, t := range grid {
		tab := Table{Title: t.title, Columns: []Column{{Name: s.axis.name}}}
		n := len(t.points)
		if v.byPolicy {
			tab.Columns[0].Name, n = "policy", len(s.policies)
		}
		for _, c := range v.cols {
			tab.Columns = append(tab.Columns, c.Column)
		}
		for k := 0; k < n; k++ {
			r := row{ref: t.ref}
			if v.byPolicy {
				r.v = policyLabel(s.policies[k])
				for _, reps := range t.reps {
					r.reps = append(r.reps, reps[k])
				}
			} else {
				r.v, r.reps = t.points[k], t.reps[k]
			}
			cells := []any{r.v}
			if label, ok := r.v.(fmt.Stringer); ok {
				cells[0] = label.String()
			}
			for _, c := range v.cols {
				cells = append(cells, c.val(r))
			}
			tab.Rows = append(tab.Rows, cells)
			if slices.Contains(r.reps, nil) {
				break // a mayFail axis ends at its first infeasible row
			}
		}
		res.Tables = append(res.Tables, tab)
	}
	notes := v.notes
	if v.lead != nil {
		notes = append([]string{v.lead(grid[0])}, notes...)
	}
	if v.notesLast {
		res.Foot = notes
	} else {
		res.Head = notes
	}
	return res
}
