package landmark

import "repro/internal/graph"

// Bound returns the landmark lower and upper bounds on d(u, v) from Eq 2:
// |d(u,l) − d(l,v)| ≤ d(u,v) ≤ d(u,l) + d(l,v), tightened over every
// landmark. ok is false when no landmark reaches both nodes.
func (idx *Index) Bound(u, v graph.NodeID) (lo, hi uint16, ok bool) {
	lo, hi = 0, Inf
	for i := range idx.Landmarks {
		du, dv := idx.Dist(i, u), idx.Dist(i, v)
		if du == Inf || dv == Inf {
			continue
		}
		ok = true
		diff := du - dv
		if dv > du {
			diff = dv - du
		}
		if diff > lo {
			lo = diff
		}
		if sum := uint32(du) + uint32(dv); sum < uint32(hi) {
			hi = uint16(sum)
		}
	}
	return lo, hi, ok
}
