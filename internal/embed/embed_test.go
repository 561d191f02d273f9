package embed

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/xrand"
)

func TestNelderMeadQuadratic(t *testing.T) {
	// f(x) = (x0-3)^2 + (x1+1)^2, minimum at (3, -1).
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	x, v := NelderMead(f, []float64{0, 0}, NMOptions{MaxIter: 500})
	if math.Abs(x[0]-3) > 0.01 || math.Abs(x[1]+1) > 0.01 {
		t.Fatalf("minimum at %v, want (3,-1)", x)
	}
	if v > 1e-3 {
		t.Fatalf("value = %v", v)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, v := NelderMead(f, []float64{-1.2, 1}, NMOptions{MaxIter: 5000, Tol: 1e-12})
	if v > 1e-4 {
		t.Fatalf("Rosenbrock minimum not found: x=%v v=%v", x, v)
	}
}

func TestNelderMeadNeverWorsens(t *testing.T) {
	// Best-seen objective is monotone: final value <= initial value.
	f := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += math.Abs(v) + math.Sin(v)*0.5
		}
		return s
	}
	x0 := []float64{5, -3, 2, 8}
	_, v := NelderMead(f, x0, NMOptions{MaxIter: 50})
	if v > f(x0) {
		t.Fatalf("NelderMead worsened the objective: %v > %v", v, f(x0))
	}
}

func TestNelderMeadEmptyInput(t *testing.T) {
	called := false
	_, v := NelderMead(func(x []float64) float64 { called = true; return 7 }, nil, NMOptions{})
	if !called || v != 7 {
		t.Fatalf("empty-input handling broken: called=%v v=%v", called, v)
	}
}

func TestNelderMeadOneDim(t *testing.T) {
	f := func(x []float64) float64 { return (x[0] - 2) * (x[0] - 2) }
	x, _ := NelderMead(f, []float64{10}, NMOptions{MaxIter: 300})
	if math.Abs(x[0]-2) > 0.05 {
		t.Fatalf("1-D minimum at %v, want 2", x[0])
	}
}

func buildEmbedding(t *testing.T, g *graph.Graph, nLandmarks, dims int) (*landmark.Index, *Embedding) {
	t.Helper()
	ls := landmark.Select(g, nLandmarks, 1)
	if len(ls) < 2 {
		t.Fatalf("only %d landmarks selected", len(ls))
	}
	idx := landmark.BuildIndex(g, ls, 0)
	e, err := Build(g, idx, Options{Dimensions: dims, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return idx, e
}

func TestBuildGridEmbedding(t *testing.T) {
	g := gen.Grid(12, 12)
	idx, e := buildEmbedding(t, g, 12, 4)
	if e.NumNodes() != 144 || e.D != 4 {
		t.Fatalf("embedding shape: n=%d D=%d", e.NumNodes(), e.D)
	}
	// Landmarks sit exactly at their anchors: pairwise landmark euclidean
	// distances approximate hop distances within reason.
	var errSum float64
	var terms int
	for i := 0; i < idx.NumLandmarks(); i++ {
		for j := i + 1; j < idx.NumLandmarks(); j++ {
			d := idx.LandmarkDist(i, j)
			if d == landmark.Inf || d == 0 {
				continue
			}
			eu := Euclidean(e.Coords(idx.Landmarks[i]), e.Coords(idx.Landmarks[j]))
			errSum += math.Abs(float64(d)-eu) / float64(d)
			terms++
		}
	}
	if terms == 0 {
		t.Fatal("no landmark pairs measured")
	}
	if avg := errSum / float64(terms); avg > 0.5 {
		t.Fatalf("landmark pairwise relative error = %v, want < 0.5", avg)
	}
}

func TestEmbeddingPreservesNearVsFar(t *testing.T) {
	// The routing property that matters: nearby nodes embed closer than
	// far-apart nodes, on average.
	g := gen.Grid(12, 12)
	_, e := buildEmbedding(t, g, 12, 4)
	rng := xrand.New(9)
	var nearSum, farSum float64
	var n int
	for trial := 0; trial < 60; trial++ {
		u := graph.NodeID(rng.Intn(144))
		near := g.KHopNeighborhood(u, 1, graph.Both)
		if len(near) == 0 {
			continue
		}
		v := near[rng.Intn(len(near))]
		// A node ~10+ hops away.
		far := graph.NodeID((int(u) + 72 + rng.Intn(10)) % 144)
		if truth := g.HopDistance(u, far, -1, graph.Both); truth < 6 {
			continue
		}
		nearSum += Euclidean(e.Coords(u), e.Coords(v))
		farSum += Euclidean(e.Coords(u), e.Coords(far))
		n++
	}
	if n < 10 {
		t.Fatalf("too few samples: %d", n)
	}
	if nearSum/float64(n) >= farSum/float64(n) {
		t.Fatalf("embedding does not separate near (%v) from far (%v)", nearSum/float64(n), farSum/float64(n))
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(150, 600, 3)
	ls := landmark.Select(g, 8, 1)
	idx := landmark.BuildIndex(g, ls, 0)
	a, err := Build(g, idx, Options{Dimensions: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, idx, Options{Dimensions: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.NodeID(0); int(u) < a.NumNodes(); u++ {
		ca, cb := a.Coords(u), b.Coords(u)
		for j := range ca {
			if ca[j] != cb[j] {
				t.Fatalf("node %d dim %d: %v != %v (non-deterministic build)", u, j, ca[j], cb[j])
			}
		}
	}
}

func TestBuildNeedsTwoLandmarks(t *testing.T) {
	g := gen.Ring(10)
	idx := landmark.BuildIndex(g, []graph.NodeID{0}, 0)
	if _, err := Build(g, idx, Options{Dimensions: 3}); err == nil {
		t.Fatal("Build accepted a single landmark")
	}
}

func TestMoreDimensionsNoWorse(t *testing.T) {
	// Figure 12(a): relative error shrinks (or at least does not blow up)
	// with added dimensions.
	g := gen.BarabasiAlbert(400, 4, 5)
	ls := landmark.Select(g, 10, 1)
	idx := landmark.BuildIndex(g, ls, 0)
	e2, err := Build(g, idx, Options{Dimensions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e10, err := Build(g, idx, Options{Dimensions: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2 := MeasureRelativeError(g, e2, 150, 2, 99)
	r10 := MeasureRelativeError(g, e10, 150, 2, 99)
	if r10 > r2*1.25 {
		t.Fatalf("10-D error %v much worse than 2-D error %v", r10, r2)
	}
}

func TestMeasureLandmarkFitImprovesWithDimensions(t *testing.T) {
	// Figure 12(a)'s mechanism: the Eq 4 objective fits better in higher
	// dimensions.
	g := gen.LocalWeb(1500, 8, 80, 0.01, 3)
	ls := landmark.Select(g, 10, 1)
	idx := landmark.BuildIndex(g, ls, 0)
	fit := func(d int) float64 {
		e, err := Build(g, idx, Options{Dimensions: d, Seed: 1, NM: NMOptions{MaxIter: 60}})
		if err != nil {
			t.Fatal(err)
		}
		return MeasureLandmarkFit(idx, e, 200, 5)
	}
	f2, f10 := fit(2), fit(10)
	if f10 >= f2 {
		t.Fatalf("10-D fit error %v not better than 2-D %v", f10, f2)
	}
	if f2 <= 0 || f10 <= 0 {
		t.Fatalf("fit errors degenerate: %v, %v", f2, f10)
	}
}

func TestMeasureLandmarkFitEmpty(t *testing.T) {
	e := &Embedding{D: 3}
	idx := landmark.BuildIndex(gen.Ring(4), nil, 1)
	if got := MeasureLandmarkFit(idx, e, 10, 1); got != 0 {
		t.Fatalf("fit on empty embedding = %v", got)
	}
}

func TestMeasureRelativeErrorDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(100, 500, 2)
	_, e := buildEmbedding(t, g, 6, 3)
	a := MeasureRelativeError(g, e, 50, 2, 4)
	b := MeasureRelativeError(g, e, 50, 2, 4)
	if a != b {
		t.Fatalf("non-deterministic measurement: %v != %v", a, b)
	}
}

func TestMeasureRelativeErrorEmptyGraph(t *testing.T) {
	e := &Embedding{D: 3}
	if got := MeasureRelativeError(graph.New(), e, 10, 2, 1); got != 0 {
		t.Fatalf("error on empty graph = %v", got)
	}
}

func TestIncorporateNode(t *testing.T) {
	g := gen.Grid(8, 8)
	idx, e := buildEmbedding(t, g, 8, 4)
	// New node attached to node 0 and node 1.
	u := g.AddNode("")
	g.AddEdgeFast(0, u)
	g.AddEdgeFast(u, 1)
	idx.IncorporateNode(g, u)
	e.IncorporateNode(g, idx, u, Options{Dimensions: 4, Seed: 42})
	cu := e.Coords(u)
	if cu == nil {
		t.Fatal("new node has no coordinates")
	}
	// It should land near node 0's coordinates (1 hop) and far from the
	// opposite corner (~14 hops).
	near := Euclidean(cu, e.Coords(0))
	far := Euclidean(cu, e.Coords(63))
	if near >= far {
		t.Fatalf("incorporated node misplaced: near=%v far=%v", near, far)
	}
}

func TestCoordsOutOfRange(t *testing.T) {
	e := &Embedding{D: 3}
	if e.Coords(5) != nil {
		t.Fatal("Coords out of range should be nil")
	}
	if e.NumNodes() != 0 {
		t.Fatalf("NumNodes = %d", e.NumNodes())
	}
}

func TestStorageBytes(t *testing.T) {
	g := gen.Ring(50)
	_, e := buildEmbedding(t, g, 4, 5)
	if got := e.StorageBytes(); got != int64(50*5*4) {
		t.Fatalf("StorageBytes = %d, want 1000", got)
	}
}

func TestEuclidean(t *testing.T) {
	a := []float32{0, 3}
	b := []float32{4, 0}
	if d := Euclidean(a, b); math.Abs(d-5) > 1e-9 {
		t.Fatalf("Euclidean = %v, want 5", d)
	}
	if d := Euclidean(a, a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func BenchmarkPlaceNode(b *testing.B) {
	g := gen.BarabasiAlbert(2000, 6, 1)
	ls := landmark.Select(g, 16, 2)
	idx := landmark.BuildIndex(g, ls, 0)
	e, err := Build(g, idx, Options{Dimensions: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	none := graph.New() // no neighbours to average: every call is the search
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.IncorporateNode(none, idx, graph.NodeID(i%2000), Options{Dimensions: 10, Seed: 1})
	}
}

// referenceNelderMead is the textbook method, written to be read rather
// than to be fast: every iteration sorts all n+1 vertices by value, so the
// best, the worst and the second-worst are whatever the order says they
// are. Classic coefficients (reflect 1, expand 2, contract 0.5, shrink
// 0.5), the same acceptance rules and the same stop test as nelderMead.
func referenceNelderMead(f func([]float64) float64, x0 []float64, opts NMOptions) ([]float64, float64) {
	opts = opts.withDefaults()
	n := len(x0)
	type vertex struct {
		x []float64
		v float64
	}
	at := func(x []float64) vertex { return vertex{x, f(x)} }
	// along returns c + t·(p − c).
	along := func(c, p []float64, t float64) []float64 {
		x := make([]float64, n)
		for j := range x {
			x[j] = c[j] + t*(p[j]-c[j])
		}
		return x
	}
	simplex := make([]vertex, n+1)
	for i := range simplex {
		x := slices.Clone(x0)
		if i > 0 {
			x[i-1] += opts.Step
		}
		simplex[i] = at(x)
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		slices.SortStableFunc(simplex, func(a, b vertex) int { return cmp.Compare(a.v, b.v) })
		best, second, worst := simplex[0], simplex[n-1], simplex[n]
		if worst.v-best.v < opts.Tol {
			break
		}
		centroid := make([]float64, n)
		for _, p := range simplex[:n] {
			for j := range centroid {
				centroid[j] += p.x[j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(n)
		}
		reflected := at(along(centroid, worst.x, -1))
		switch {
		case reflected.v < best.v:
			if expanded := at(along(centroid, worst.x, -2)); expanded.v < reflected.v {
				simplex[n] = expanded
			} else {
				simplex[n] = reflected
			}
		case reflected.v < second.v:
			simplex[n] = reflected
		default:
			towards := worst // inside contraction
			if reflected.v < worst.v {
				towards = reflected // outside
			}
			if c := at(along(centroid, towards.x, 0.5)); c.v < worst.v && c.v <= reflected.v {
				simplex[n] = c
			} else {
				for i := 1; i <= n; i++ {
					simplex[i] = at(along(best.x, simplex[i].x, 0.5))
				}
			}
		}
	}
	slices.SortStableFunc(simplex, func(a, b vertex) int { return cmp.Compare(a.v, b.v) })
	return simplex[0].x, simplex[0].v
}

// nmCase is one seeded objective and start for the reference comparison.
type nmCase struct {
	name string
	f    func([]float64) float64
	x0   []float64
	opts NMOptions
}

// nmCases draws 200 of them: convex quadratics with random axes weights and
// centres, Rosenbrock from random starts, and placeNode's own objective —
// the mean of |d − ‖x − a‖| / d over random anchors — in 2–10 dimensions.
// Every third case starts on the far side of the optimum along each axis,
// so x0, which is vertex 0, is the worst vertex of the first simplex: the
// case the old second-worst scan got wrong.
func nmCases() []nmCase {
	rng := xrand.New(20261003)
	var cases []nmCase
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(9)
		worstFirst := i%3 == 0
		c := nmCase{opts: NMOptions{MaxIter: 150 + 20*n, Tol: 1e-9, Step: 0.5 + rng.Float64()}}
		switch i % 4 {
		case 0, 1:
			centre, w := make([]float64, n), make([]float64, n)
			for j := range centre {
				centre[j], w[j] = rng.NormFloat64()*3, 0.5+rng.Float64()*4
			}
			c.name = fmt.Sprintf("quadratic-%dd", n)
			c.f = func(x []float64) float64 {
				var s float64
				for j, v := range x {
					s += w[j] * (v - centre[j]) * (v - centre[j])
				}
				return s
			}
			c.x0 = make([]float64, n)
			for j := range c.x0 {
				if worstFirst {
					// Every step along +axis moves towards the centre.
					c.x0[j] = centre[j] - 3 - rng.Float64()
				} else {
					c.x0[j] = centre[j] + rng.NormFloat64()*2
				}
			}
		case 2:
			c.name = "rosenbrock"
			c.f = func(x []float64) float64 {
				a, b := 1-x[0], x[1]-x[0]*x[0]
				return a*a + 100*b*b
			}
			c.x0 = []float64{-1.2 + rng.NormFloat64()*0.3, 1 + rng.NormFloat64()*0.3}
		case 3:
			anchors, d := make([][]float64, 4+rng.Intn(13)), []float64(nil)
			for k := range anchors {
				anchors[k] = make([]float64, n)
				for j := range anchors[k] {
					anchors[k][j] = rng.NormFloat64() * 3
				}
				d = append(d, float64(1+rng.Intn(6)))
			}
			c.name = fmt.Sprintf("placement-%dd-%danchors", n, len(anchors))
			c.f = func(x []float64) float64 {
				var sum float64
				for k, a := range anchors {
					var eu float64
					for j := range x {
						eu += (x[j] - a[j]) * (x[j] - a[j])
					}
					sum += relErr(d[k], math.Sqrt(eu))
				}
				return sum / float64(len(anchors))
			}
			// placeNode's start: an anchor's own coordinates.
			c.x0 = slices.Clone(anchors[rng.Intn(len(anchors))])
		}
		cases = append(cases, c)
	}
	return cases
}

// TestNelderMeadMatchesReference: same point, same value, same number of
// objective evaluations as the sort-based reference on every case. A wrong
// second-worst vertex accepts or rejects a reflection the textbook method
// would not, and from there the two searches part ways.
func TestNelderMeadMatchesReference(t *testing.T) {
	worstFirst := 0
	for i, c := range nmCases() {
		var evals, refEvals int
		first := make([]float64, 0, len(c.x0)+1)
		x, v := NelderMead(func(x []float64) float64 {
			evals++
			fx := c.f(x)
			if len(first) <= len(c.x0) {
				first = append(first, fx)
			}
			return fx
		}, c.x0, c.opts)
		wx, wv := referenceNelderMead(func(x []float64) float64 { refEvals++; return c.f(x) }, c.x0, c.opts)
		if first[0] == slices.Max(first) {
			worstFirst++
		}
		// The reference sums the centroid in sorted order, so the last bits
		// differ; a different decision anywhere shows in the count.
		same := evals == refEvals && math.Abs(v-wv) <= 1e-9
		for j := range x {
			same = same && math.Abs(x[j]-wx[j]) <= 1e-9
		}
		if !same {
			t.Errorf("case %d (%s): %d evaluations, value %v at %v; reference %d evaluations, value %v at %v",
				i, c.name, evals, v, x, refEvals, wv, wx)
		}
	}
	if worstFirst < 40 {
		t.Errorf("only %d cases start with vertex 0 the worst; the cases no longer cover the old bug", worstFirst)
	}
}
