package embed

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/xrand"
)

// On a path, hop distances are one-dimensional Euclidean distances, and
// landmark MDS is exact on Euclidean input: every row the triangulation
// gives, before the pass, is at exactly its hop distance from every
// landmark's row.
func TestTriangulationExactOnPath(t *testing.T) {
	const n = 60
	g := gen.Grid(n, 1)
	idx := landmark.BuildIndex(g, []graph.NodeID{3, 17, 40, 58}, 1)
	e, err := landmarkRows(g, idx, Options{Dimensions: 1})
	if err != nil {
		t.Fatal(err)
	}
	for u := range graph.NodeID(n) {
		for i, l := range idx.Landmarks {
			got, want := Euclidean(e.Coords(u), e.Coords(l)), float64(idx.Dist(i, u))
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("node %d, landmark %d: embedded distance %v, hop distance %v", u, l, got, want)
			}
		}
	}
}

// symEigen on seeded random symmetric matrices: a = v·diag(vals)·vᵀ, v
// orthonormal, the eigenvalues descending.
func TestSymEigenReconstructs(t *testing.T) {
	rng := xrand.New(20261015)
	for trial := range 50 {
		n := 1 + rng.Intn(40)
		a := make([]float64, n*n)
		for i := range n {
			for j := i; j < n; j++ {
				a[i*n+j] = rng.NormFloat64() * 10
				a[j*n+i] = a[i*n+j]
			}
		}
		vals, v := symEigen(slices.Clone(a), n)
		if !slices.IsSortedFunc(vals, func(x, y float64) int { return cmp.Compare(y, x) }) {
			t.Fatalf("trial %d: eigenvalues not descending: %v", trial, vals)
		}
		for i := range n {
			for j := range n {
				var rec, dot float64
				for k := range n {
					rec += v[i*n+k] * vals[k] * v[j*n+k]
					dot += v[k*n+i] * v[k*n+j]
				}
				if math.Abs(rec-a[i*n+j]) > 1e-9 {
					t.Fatalf("trial %d (n=%d): VΛVᵀ[%d][%d] = %v, a = %v", trial, n, i, j, rec, a[i*n+j])
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-9 {
					t.Fatalf("trial %d (n=%d): column %d · column %d = %v", trial, n, i, j, dot)
				}
			}
		}
	}
}

// With L landmarks at most L−1 dimensions carry information. Asked for more
// (fig12a's 15 and 20 dimensions against Quick's 16 landmarks), the
// coordinates past the last positive eigenvalue are 0 and every row is
// finite. A plain least-squares solve for the extra coordinates blew up
// here (landmark fit 13.2 at D = 15). A small positive eigenvalue still
// costs fit — on this graph the 12th of 16 is 0.002 of the largest, and the
// fit is 0.15 at D = 8 and 1.30 from D = 12 on — but it stays finite.
func TestExtraDimensionsStayZero(t *testing.T) {
	g, idx := goldenWebGraph(t)
	L := idx.NumLandmarks()
	for _, D := range []int{L - 1, L + 4} {
		e, err := landmarkRows(g, idx, Options{Dimensions: D, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		used := 0
		for u := range graph.NodeID(e.NumNodes()) {
			row := e.Coords(u)
			if nanRow(row) || !reachable(idx, u) {
				continue
			}
			for j, v := range row {
				if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
					t.Fatalf("D=%d: node %d coordinate %d is %v", D, u, j, v)
				}
				if v != 0 {
					used = max(used, j+1)
				}
			}
		}
		if used == 0 || used > L-1 {
			t.Errorf("D=%d with %d landmarks: coordinates used up to dimension %d", D, L, used)
		}
		if fit := MeasureLandmarkFit(idx, e, 2000, 5); fit > 2 {
			t.Errorf("D=%d: landmark fit %.4f", D, fit)
		}
		t.Logf("D=%d, %d landmarks: %d dimensions carry coordinates", D, L, used)
	}
}

// Build is serial: the same table whatever GOMAXPROCS is.
func TestBuildSameAtAnyGOMAXPROCS(t *testing.T) {
	g, idx := goldenWebGraph(t)
	var tables [][]float32
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		e, err := Build(g, idx, Options{Dimensions: 8, Seed: 7})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, e.coords)
	}
	for i := range tables[0] {
		if math.Float32bits(tables[0][i]) != math.Float32bits(tables[1][i]) {
			t.Fatalf("coordinate %d: %v at GOMAXPROCS 1, %v at 4", i, tables[0][i], tables[1][i])
		}
	}
}
