// Package embed implements the paper's second smart routing substrate
// (Section 3.4.2): embedding the graph into a low-dimensional Euclidean
// space so that hop-count distances are approximately preserved, using the
// Simplex Downhill (Nelder–Mead) algorithm — the optimiser the paper
// applies both to place the landmarks and to place every remaining node.
//
// The searches fit each node to the landmarks, one node at a time, and what
// routing needs of the table is something no search looks at: that a node's
// neighbours are near it, so that a hotspot's queries reach one processor's
// cache. Build therefore ends with one neighbour-averaging pass over the
// table, and IncorporateNode is that pass's step for one node. Three numbers
// describe a table and they do not move together: the landmark fit
// (MeasureLandmarkFit, what the searches minimise; the pass raises it), the
// pair error between nearby nodes (MeasureRelativeError, the paper's Figure
// 12(a); the pass lowers it on graphs of the benchmark's size), and reuse
// captured — of the cache hits a router that knew the hotspots would get, the
// share embed routing gets — which is what the table is for and what the
// pass is judged by (TestEmbedCapturesHotspotReuse in internal/rpc).
package embed

import (
	"slices"

	"repro/internal/xrand"
)

// NMOptions tunes the Nelder–Mead search.
type NMOptions struct {
	// MaxIter caps the number of simplex iterations (default 200).
	MaxIter int
	// Tol is the stop rule: the search has converged when the best and the
	// worst simplex vertex values are closer than Tol, an absolute spread
	// in the objective's own units — so the right value depends on what f
	// measures. The default, 1e-6, suits a caller of the bare optimiser who
	// says nothing about f; Options.withDefaults picks the one for the
	// embedding's objective.
	Tol float64
	// Step is the initial simplex edge length (default 1.0), in the units
	// of x.
	Step float64
}

func (o NMOptions) withDefaults() NMOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.Step == 0 {
		o.Step = 1.0
	}
	return o
}

// NelderMead minimises f starting from x0, returning the best point found
// and its value. The classic parameters are used: reflection 1, expansion
// 2, contraction 0.5, shrink 0.5. f must not retain its argument.
func NelderMead(f func([]float64) float64, x0 []float64, opts NMOptions) ([]float64, float64) {
	var s scratch
	x, v := s.nelderMead(f, x0, opts)
	return slices.Clone(x), v
}

// scratch is the working set of one placement at a time: the simplex and
// its trial points, the start point, the list of anchors a node is fitted
// against, the node's random stream, and the running cost of the searches
// made on it. The preprocessing places every node of the graph, so whoever
// places many (a Build worker) keeps one and the searches allocate nothing;
// the float windows are cut from one slab.
type scratch struct {
	pts                               [][]float64 // the n+1 simplex vertices
	vals, centroid, trial, trial2, x0 []float64
	terms                             []term
	rng                               xrand.Source
	stats                             BuildStats
}

// term is one anchor a node is fitted against and its hop distance to it.
type term struct {
	anchor []float64
	d      float64
}

// fit cuts the windows for an n-dimensional search, reusing what is there
// when the dimension has not changed.
func (s *scratch) fit(n int) {
	if len(s.pts) == n+1 {
		return
	}
	slab := make([]float64, (n+1)*n+(n+1)+4*n)
	cut := func(k int) []float64 {
		w := slab[:k:k]
		slab = slab[k:]
		return w
	}
	s.pts = make([][]float64, n+1)
	for i := range s.pts {
		s.pts[i] = cut(n)
	}
	// vals, the one window that is not n long, goes last: at the paper's
	// eight dimensions every other window is then a cache line of its own.
	s.centroid, s.trial, s.trial2, s.x0, s.vals = cut(n), cut(n), cut(n), cut(n), cut(n+1)
}

// nelderMead is NelderMead on the scratch: the point it returns is one of
// the scratch's simplex vertices, good until the scratch is used again. x0
// may be the scratch's own x0 window.
func (s *scratch) nelderMead(f func([]float64) float64, x0 []float64, opts NMOptions) ([]float64, float64) {
	opts = opts.withDefaults()
	n := len(x0)
	if n == 0 {
		return nil, f(nil)
	}
	s.fit(n)
	// Re-sliced to lengths the compiler can see, or every inner loop below
	// bounds-checks what make() used to prove (+18 % on the search).
	pts, vals := s.pts[:n+1], s.vals[:n+1]
	centroid, trial, trial2 := s.centroid[:n], s.trial[:n], s.trial2[:n]

	// Initial simplex: x0 plus a step along each axis.
	for i, p := range pts {
		copy(p, x0)
		if i > 0 {
			p[i-1] += opts.Step
		}
		vals[i] = f(p)
	}
	evals := n + 1

	iter := 0
	for ; iter < opts.MaxIter; iter++ {
		// Order: locate best, worst, second-worst.
		best, worst, second := 0, 0, -1
		for i := 1; i <= n; i++ {
			if vals[i] < vals[best] {
				best = i
			}
			switch {
			case vals[i] > vals[worst]:
				worst, second = i, worst
			case second < 0 || vals[i] > vals[second]:
				second = i
			}
		}
		if vals[worst]-vals[best] < opts.Tol {
			break
		}

		// Centroid of all but the worst.
		for j := 0; j < n; j++ {
			centroid[j] = 0
		}
		for i := 0; i <= n; i++ {
			if i == worst {
				continue
			}
			for j := 0; j < n; j++ {
				centroid[j] += pts[i][j]
			}
		}
		for j := 0; j < n; j++ {
			centroid[j] /= float64(n)
		}

		// Reflection.
		for j := 0; j < n; j++ {
			trial[j] = centroid[j] + (centroid[j] - pts[worst][j])
		}
		fr := f(trial)
		evals++
		switch {
		case fr < vals[best]:
			// Expansion.
			for j := 0; j < n; j++ {
				trial2[j] = centroid[j] + 2*(centroid[j]-pts[worst][j])
			}
			fe := f(trial2)
			evals++
			if fe < fr {
				copy(pts[worst], trial2)
				vals[worst] = fe
			} else {
				copy(pts[worst], trial)
				vals[worst] = fr
			}
		case fr < vals[second]:
			copy(pts[worst], trial)
			vals[worst] = fr
		default:
			// Contraction (outside if the reflection improved on the worst,
			// inside otherwise).
			if fr < vals[worst] {
				for j := 0; j < n; j++ {
					trial2[j] = centroid[j] + 0.5*(trial[j]-centroid[j])
				}
			} else {
				for j := 0; j < n; j++ {
					trial2[j] = centroid[j] + 0.5*(pts[worst][j]-centroid[j])
				}
			}
			fc := f(trial2)
			evals++
			if fc < vals[worst] && fc <= fr {
				copy(pts[worst], trial2)
				vals[worst] = fc
			} else {
				// Shrink towards the best vertex.
				for i := 0; i <= n; i++ {
					if i == best {
						continue
					}
					for j := 0; j < n; j++ {
						pts[i][j] = pts[best][j] + 0.5*(pts[i][j]-pts[best][j])
					}
					vals[i] = f(pts[i])
				}
				evals += n
			}
		}
	}

	s.stats.Iterations += int64(iter)
	s.stats.Evaluations += int64(evals)
	if iter == opts.MaxIter {
		s.stats.Capped++
	}

	best := 0
	for i := 1; i <= n; i++ {
		if vals[i] < vals[best] {
			best = i
		}
	}
	return pts[best], vals[best]
}

// randomPoint fills p with N(0, scale) coordinates and returns it.
func randomPoint(rng *xrand.Source, p []float64, scale float64) []float64 {
	for i := range p {
		p[i] = rng.NormFloat64() * scale
	}
	return p
}
