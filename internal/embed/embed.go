package embed

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/xrand"
)

// Options configures the embedding pipeline.
type Options struct {
	// Dimensions of the Euclidean space (paper default: 10).
	Dimensions int
	// Seed drives the landmarks' random restarts and where a node no
	// landmark reaches is put; a reachable node's row does not depend on it
	// beyond the anchors.
	Seed int64
	// Workers parallelises the per-node phase (0 = GOMAXPROCS); the paper
	// notes this step "is completely parallelizable per node".
	Workers int
	// NM tunes the per-point Simplex Downhill searches.
	NM NMOptions
}

func (o Options) withDefaults() Options {
	if o.Dimensions <= 0 {
		o.Dimensions = 10
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	// MaxIter is a cap, not the budget: a search ends when Tol says it has
	// converged, and up to the paper's ten dimensions under 2 % of them get
	// this far. The cap grows with the dimension (a base plus 12·D — the
	// simplex has D+1 vertices to move), which keeps that share from
	// climbing faster than it does (10–15 % at 15–20 dimensions).
	if o.NM.MaxIter <= 0 {
		o.NM.MaxIter = 100
	}
	o.NM.MaxIter += 12 * o.Dimensions
	// The objective is a mean relative error (Eq 4) of integer hop
	// distances, and the coordinates are stored as float32: a simplex whose
	// vertices agree to a tenth of a percentage point has converged. The
	// bare optimiser's 1e-6 never fired on it (96 % of searches ran to the
	// cap while the value moved in the third decimal).
	if o.NM.Tol <= 0 {
		o.NM.Tol = 1e-3
	}
	// The first simplex spans 2.5 hops a side: the start is the nearest
	// landmark, typically a few hops off, and of the edges swept (0.5–4 on
	// the 60 k-node WebGraph preset, five seeds) 2.5 and 3 need the fewest
	// evaluations per placed node — 151 and 150, against 158 at 2 and 162
	// at 1 — with the landmark fit held; 2.5 has the lower pair error.
	if o.NM.Step == 0 {
		o.NM.Step = 2.5
	}
	return o
}

// BuildStats is what Build's per-node searches cost, in counts that do not
// depend on the host: nodes placed by a search, simplex iterations,
// objective evaluations, and searches that ended at NMOptions.MaxIter
// instead of converging. The landmarks' own placement is not included.
type BuildStats struct {
	Placed, Iterations, Evaluations, Capped int64
}

// EvalsPerNode is the objective evaluations a placed node cost.
func (b BuildStats) EvalsPerNode() float64 {
	if b.Placed == 0 {
		return 0
	}
	return float64(b.Evaluations) / float64(b.Placed)
}

func (b *BuildStats) add(o BuildStats) {
	b.Placed += o.Placed
	b.Iterations += o.Iterations
	b.Evaluations += o.Evaluations
	b.Capped += o.Capped
}

// Embedding holds D coordinates per node id — O(n·D) router storage,
// Table 3's "embed" column.
type Embedding struct {
	D      int
	coords []float32 // flat, row-major [node][dim]
	stats  BuildStats
}

// BuildStats reports what building e cost; zero for an embedding that was
// decoded from a file or materialised from a provider, and for nil.
func (e *Embedding) BuildStats() BuildStats {
	if e == nil {
		return BuildStats{}
	}
	return e.stats
}

// NumNodes returns the node-id capacity of the embedding.
func (e *Embedding) NumNodes() int {
	if e.D == 0 {
		return 0
	}
	return len(e.coords) / e.D
}

// Coords returns node u's coordinate row (owned by the embedding; callers
// must not modify it). Nodes beyond the embedded range return nil.
func (e *Embedding) Coords(u graph.NodeID) []float32 {
	i := int(u) * e.D
	if i+e.D > len(e.coords) {
		return nil
	}
	return e.coords[i : i+e.D]
}

// grow extends the table to hold node u; the rows it adds are unembedded.
func (e *Embedding) grow(u graph.NodeID) {
	for need := (int(u) + 1) * e.D; len(e.coords) < need; {
		e.coords = append(e.coords, float32(math.NaN()))
	}
}

// setCoords copies p into node u's row, growing storage as needed.
func (e *Embedding) setCoords(u graph.NodeID, p []float64) {
	e.grow(u)
	row := e.Coords(u)
	for j := range row {
		row[j] = float32(p[j])
	}
}

// SetRow overwrites node u's coordinates with a provider-supplied row —
// the incremental-update path for externally sourced embeddings, where
// re-running the provider replaces the optimiser.
func (e *Embedding) SetRow(u graph.NodeID, row []float32) error {
	if len(row) != e.D {
		return fmt.Errorf("embed: row for node %d has %d dims, embedding has %d", u, len(row), e.D)
	}
	e.setRow(u, row)
	return nil
}

// setRow is setCoords' float32 twin, used when materializing a provider.
func (e *Embedding) setRow(u graph.NodeID, row []float32) {
	need := (int(u) + 1) * e.D
	for len(e.coords) < need {
		e.coords = append(e.coords, float32(math.NaN()))
	}
	copy(e.coords[int(u)*e.D:need], row)
}

// nanRow reports whether a coordinate row is the unembedded marker.
func nanRow(row []float32) bool { return len(row) > 0 && math.IsNaN(float64(row[0])) }

// StorageBytes reports the embedding's memory footprint (Table 3).
func (e *Embedding) StorageBytes() int64 { return int64(len(e.coords)) * 4 }

// Euclidean returns the L2 distance between two coordinate rows.
func Euclidean(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// relErr is Eq 4: |d − eu| / d for a known hop distance d > 0.
func relErr(d, eu float64) float64 { return math.Abs(d-eu) / d }

// searchRows is Build up to the pass: every node where its own search put it.
func searchRows(g *graph.Graph, idx *landmark.Index, opts Options) (*Embedding, error) {
	opts = opts.withDefaults()
	L := idx.NumLandmarks()
	if L < 2 {
		return nil, fmt.Errorf("embed: need at least 2 landmarks, have %d", L)
	}
	e := &Embedding{D: opts.Dimensions}
	rng := xrand.New(opts.Seed)

	anchors := embedLandmarks(idx, opts, rng)
	// Nodes are placed against the anchors at the table's precision.
	for _, a := range anchors {
		for k, v := range a {
			a[k] = float64(float32(v))
		}
	}

	// Per-node placement, parallel with deterministic per-node seeds.
	n := idx.NumNodes()
	e.coords = make([]float32, n*e.D)
	for i := range e.coords {
		e.coords[i] = float32(math.NaN())
	}
	isLandmark := make(map[graph.NodeID]int, L)
	for i, l := range idx.Landmarks {
		isLandmark[l] = i
	}
	baseSeed := rng.Int63()

	var wg sync.WaitGroup
	ids := make(chan int)
	perWorker := make([]BuildStats, opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s scratch
			defer func() { perWorker[w] = s.stats }()
			for u := range ids {
				node := graph.NodeID(u)
				var p []float64
				if li, ok := isLandmark[node]; ok {
					p = anchors[li]
				} else {
					s.rng.Seed(baseSeed ^ int64(uint64(u)*0x9e3779b97f4a7c15))
					p = s.placeNode(idx, anchors, node, opts)
				}
				if p == nil {
					continue
				}
				row := e.coords[u*e.D : (u+1)*e.D]
				for j := 0; j < e.D; j++ {
					row[j] = float32(p[j])
				}
			}
		}()
	}
	for u := 0; u < n; u++ {
		if !g.Exists(graph.NodeID(u)) {
			continue
		}
		ids <- u
	}
	close(ids)
	wg.Wait()
	for _, st := range perWorker {
		e.stats.add(st)
	}
	return e, nil
}

// embedLandmarks places the landmark anchors sequentially: the first at
// the origin, each next minimising the aggregate pairwise relative error
// against all previously placed landmarks (the incremental scheme Orion
// popularised for large graphs; jointly optimising all |L|·D coordinates
// with one simplex is intractable at |L| = 96).
func embedLandmarks(idx *landmark.Index, opts Options, rng *xrand.Source) [][]float64 {
	L := idx.NumLandmarks()
	anchors := make([][]float64, L)
	anchors[0] = make([]float64, opts.Dimensions)

	// Typical landmark spacing seeds the random inits.
	var meanD float64
	var cnt int
	for j := 1; j < L; j++ {
		if d := idx.LandmarkDist(0, j); d != landmark.Inf {
			meanD += float64(d)
			cnt++
		}
	}
	if cnt > 0 {
		meanD /= float64(cnt)
	} else {
		meanD = 1
	}

	var s scratch
	s.fit(opts.Dimensions)
	for i := 1; i < L; i++ {
		placed := anchors[:i]
		obj := func(x []float64) float64 {
			var sum float64
			terms := 0
			for j, a := range placed {
				if a == nil {
					continue
				}
				d := idx.LandmarkDist(i, j)
				if d == landmark.Inf || d == 0 {
					continue
				}
				var eu float64
				for k := range x {
					diff := x[k] - a[k]
					eu += diff * diff
				}
				sum += relErr(float64(d), math.Sqrt(eu))
				terms++
			}
			if terms == 0 {
				return 0
			}
			return sum / float64(terms)
		}
		bestVal := math.Inf(1)
		// A few random restarts dodge poor local minima cheaply.
		for r := 0; r < 3; r++ {
			x, v := s.nelderMead(obj, randomPoint(rng, s.x0, meanD/2), opts.NM)
			if v < bestVal {
				anchors[i], bestVal = append(anchors[i][:0], x...), v
			}
		}
	}
	return anchors
}

// placeNode embeds one node against the anchors, minimising the aggregate
// relative error to every landmark that reaches it. The search starts at the
// nearest landmark's own coordinates, so the point is a function of the
// anchors and the node's distances alone — two neighbours with near-equal
// distance vectors walk to the same minimum of a non-convex objective — and
// s.rng, which the caller seeds per node, is drawn from only for a node no
// landmark reaches. It is where the node's search ends, not the node's row
// in a built table: Build's pass moves every row afterwards. The point
// returned is an anchor's or the scratch's own, to be copied before the
// scratch is used again.
func (s *scratch) placeNode(idx *landmark.Index, anchors [][]float64, u graph.NodeID, opts Options) []float64 {
	s.fit(opts.Dimensions)
	terms := s.terms[:0]
	var nearest []float64
	nearestD := math.Inf(1)
	for i, a := range anchors {
		if a == nil {
			continue
		}
		d := idx.Dist(i, u)
		if d == landmark.Inf {
			continue
		}
		if d == 0 {
			// u is (or coincides with) this landmark.
			return a
		}
		terms = append(terms, term{anchor: a, d: float64(d)})
		if float64(d) < nearestD {
			nearestD = float64(d)
			nearest = a
		}
	}
	s.terms = terms
	if len(terms) == 0 {
		// Unreachable from every landmark: random placement far out, so it
		// never looks artificially close to active regions.
		return randomPoint(&s.rng, s.x0, 1000)
	}
	obj := func(x []float64) float64 {
		var sum float64
		for _, t := range terms {
			var eu float64
			for k := range x {
				diff := x[k] - t.anchor[k]
				eu += diff * diff
			}
			sum += relErr(t.d, math.Sqrt(eu))
		}
		return sum / float64(len(terms))
	}
	s.stats.Placed++
	x, _ := s.nelderMead(obj, nearest, opts.NM)
	return x
}

// MeasureLandmarkFit returns the mean relative error (Eq 4) between true
// node→landmark hop distances and their embedded Euclidean distances, over
// sampled nodes. This is the objective the Simplex Downhill searches
// minimise — how well the optimiser did its job — and Figure 12(a)'s first
// column here; it is NOT what the paper plots (see MeasureRelativeError).
func MeasureLandmarkFit(idx *landmark.Index, e *Embedding, samples int, seed int64) float64 {
	rng := xrand.New(seed)
	n := e.NumNodes()
	if n == 0 || idx.NumLandmarks() == 0 {
		return 0
	}
	var sum float64
	var count int
	for t := 0; t < samples*4 && count < samples; t++ {
		u := graph.NodeID(rng.Intn(n))
		cu := e.Coords(u)
		if cu == nil || math.IsNaN(float64(cu[0])) {
			continue
		}
		for i, l := range idx.Landmarks {
			d := idx.Dist(i, u)
			if d == landmark.Inf || d == 0 {
				continue
			}
			cl := e.Coords(l)
			if cl == nil {
				continue
			}
			sum += relErr(float64(d), Euclidean(cu, cl))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// MeasureRelativeError samples node pairs within maxHops of each other and
// returns the mean relative distance error (Eq 4) of the embedding between
// them — the paper's own measure of an embedding, the quantity plotted in
// Figure 12(a), and what routing depends on: no search minimises it, it is
// what fitting every node to the landmarks is hoped to buy. Pairs are drawn
// deterministically from seed; pairs whose true distance is 0 or
// unreachable are skipped.
func MeasureRelativeError(g *graph.Graph, e *Embedding, samples, maxHops int, seed int64) float64 {
	rng := xrand.New(seed)
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return 0
	}
	var sum float64
	var count int
	for t := 0; t < samples*4 && count < samples; t++ {
		u := nodes[rng.Intn(len(nodes))]
		near := g.BFSBounded(u, maxHops, graph.Both)
		delete(near, u)
		if len(near) == 0 {
			continue
		}
		// Sort the candidate ids so the pick is deterministic (map
		// iteration order is not).
		cands := make([]graph.NodeID, 0, len(near))
		for w := range near {
			cands = append(cands, w)
		}
		slices.Sort(cands)
		v := cands[rng.Intn(len(cands))]
		cu, cv := e.Coords(u), e.Coords(v)
		if cu == nil || cv == nil {
			continue
		}
		d := float64(near[v])
		sum += relErr(d, Euclidean(cu, cv))
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
