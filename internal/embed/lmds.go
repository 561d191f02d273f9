package embed

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/landmark"
)

// lmds is landmark MDS (de Silva & Tenenbaum, "Sparse multidimensional
// scaling using landmark points", 2004). Classical MDS of the L landmarks —
// the top eigenpairs of their double-centred squared-distance matrix — gives
// them coordinates, and any node whose squared distances to the landmarks
// are δ_u is then placed at x = ½·L♯·(δ̄ − δ_u): δ̄ is the mean of the
// landmarks' own squared-distance columns, and row k of L♯ is the k-th
// eigenvector over the square root of its eigenvalue. A landmark lands on its
// own MDS point, and a node whose distances are exactly Euclidean in D
// dimensions lands exactly. The paper places the landmarks and then every
// other node by Simplex Downhill searches; this is that placement in closed
// form, one D×L product per node.
type lmds struct {
	proj []float64 // ½·L♯, D×L row-major; rows past the last positive eigenvalue are 0
	mean []float64 // δ̄
	far  float64   // the hop distance an unreachable landmark counts as
	diff []float64 // scratch: δ̄ − δ_u
}

// newLMDS solves the landmarks of idx for a D-dimensional placement. With L
// landmarks at most L−1 eigenvalues are positive (the constant vector is in
// the kernel of the double-centred matrix), and hop distances are not
// Euclidean, so some are negative: only the positive ones give a dimension,
// and the coordinates past the last of them stay 0.
func newLMDS(idx *landmark.Index, D int) *lmds {
	L := idx.NumLandmarks()
	m := &lmds{proj: make([]float64, D*L), mean: make([]float64, L), diff: make([]float64, L)}
	m.far = float64(maxFinite(idx)) + 1
	// Squared landmark distances, symmetrised: an index updated in place
	// holds upper bounds, which need not agree in the two directions.
	b := make([]float64, L*L)
	for i := range L {
		for j := range L {
			b[i*L+j] = (m.sq(idx.LandmarkDist(i, j)) + m.sq(idx.LandmarkDist(j, i))) / 2
		}
	}
	// Double centring: B = −½·H·Δ·H, with δ̄ the row (= column) means of Δ.
	var grand float64
	for i := range L {
		for _, v := range b[i*L : (i+1)*L] {
			m.mean[i] += v
		}
		m.mean[i] /= float64(L)
		grand += m.mean[i] / float64(L)
	}
	for i := range L {
		for j := range L {
			b[i*L+j] = -(b[i*L+j] - m.mean[i] - m.mean[j] + grand) / 2
		}
	}
	vals, vecs := symEigen(b, L)
	for k := range min(D, L) {
		// Relative to the largest: the kernel's eigenvalue comes out of the
		// solver as ±1e-13 or so, and dividing by its root would blow up.
		if !(vals[k] > 1e-9*vals[0]) {
			break
		}
		s := 0.5 / math.Sqrt(vals[k])
		for j := range L {
			m.proj[k*L+j] = vecs[j*L+k] * s
		}
	}
	return m
}

// sq is a landmark distance squared, an unreachable one counting as m.far.
func (m *lmds) sq(d uint16) float64 {
	if d == landmark.Inf {
		return m.far * m.far
	}
	return float64(d) * float64(d)
}

// triangulate sets x to u's point and reports whether any landmark reaches
// u; when none does, x is left as it was.
func (m *lmds) triangulate(idx *landmark.Index, u graph.NodeID, x []float64) bool {
	reached := false
	for i := range m.diff {
		d := idx.Dist(i, u)
		reached = reached || d != landmark.Inf
		m.diff[i] = m.mean[i] - m.sq(d)
	}
	if !reached {
		return false
	}
	L := len(m.diff)
	for k := range x {
		var s float64
		for i, p := range m.proj[k*L : (k+1)*L] {
			s += p * m.diff[i]
		}
		x[k] = s
	}
	return true
}

// reachable reports whether any landmark of idx reaches u.
func reachable(idx *landmark.Index, u graph.NodeID) bool {
	for i := range idx.NumLandmarks() {
		if idx.Dist(i, u) != landmark.Inf {
			return true
		}
	}
	return false
}

// maxFinite is the largest finite hop distance idx holds.
func maxFinite(idx *landmark.Index) uint16 {
	var top uint16
	for i := range idx.NumLandmarks() {
		for u := range graph.NodeID(idx.NumNodes()) {
			if d := idx.Dist(i, u); d != landmark.Inf && d > top {
				top = d
			}
		}
	}
	return top
}

// symEigen diagonalises the symmetric n×n matrix a (row-major; destroyed) by
// cyclic Jacobi rotations and returns its eigenvalues in descending order and
// the unit eigenvectors as the matching columns of v (row-major n×n), so that
// a = v·diag(vals)·vᵀ. n is the landmark count, a few dozen, where Jacobi is
// as accurate as anything and the simplest to get right.
func symEigen(a []float64, n int) (vals, v []float64) {
	v = make([]float64, n*n)
	for i := range n {
		v[i*n+i] = 1
	}
	for sweep := 0; sweep < 50; sweep++ {
		var off float64
		for p := range n {
			for q := p + 1; q < n; q++ {
				off += math.Abs(a[p*n+q])
			}
		}
		if off == 0 {
			break
		}
		for p := range n {
			for q := p + 1; q < n; q++ {
				apq, app, aqq := a[p*n+q], a[p*n+p], a[q*n+q]
				if apq == 0 {
					continue
				}
				// Past the first sweeps, an element too small to change
				// either diagonal entry is zero; so the sweeps end.
				if g := 100 * math.Abs(apq); sweep > 3 && math.Abs(app)+g == math.Abs(app) && math.Abs(aqq)+g == math.Abs(aqq) {
					a[p*n+q], a[q*n+p] = 0, 0
					continue
				}
				// The rotation that zeroes a[p][q]: t = tan θ, the smaller
				// root of t² + 2τt − 1 = 0.
				tau := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(tau) + math.Sqrt(tau*tau+1))
				if tau < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := range n {
					if k != p && k != q {
						akp, akq := a[k*n+p], a[k*n+q]
						a[k*n+p], a[k*n+q] = c*akp-s*akq, s*akp+c*akq
						a[p*n+k], a[q*n+k] = a[k*n+p], a[k*n+q]
					}
					vkp, vkq := v[k*n+p], v[k*n+q]
					v[k*n+p], v[k*n+q] = c*vkp-s*vkq, s*vkp+c*vkq
				}
				a[p*n+p], a[q*n+q] = app-t*apq, aqq+t*apq
				a[p*n+q], a[q*n+p] = 0, 0
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(a[j*n+j], a[i*n+i]) })
	vals, sorted := make([]float64, n), make([]float64, n*n)
	for k, i := range order {
		vals[k] = a[i*n+i]
		for r := range n {
			sorted[r*n+k] = v[r*n+i]
		}
	}
	return vals, sorted
}
