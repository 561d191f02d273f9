package partition

import "repro/internal/graph"

// Balance returns max part size / ideal part size (1.0 = perfect).
func (a *EdgeCut) Balance(g *graph.Graph) float64 {
	sizes := make([]int, a.K)
	total := 0
	for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
		if g.Exists(u) && a.Of[u] >= 0 {
			sizes[a.Of[u]]++
			total++
		}
	}
	if total == 0 {
		return 1
	}
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	return float64(maxSize) * float64(a.K) / float64(total)
}

// EdgeBalance returns max part edge-load / ideal (1.0 = perfect).
func (vc *VertexCut) EdgeBalance() float64 {
	total, maxLoad := 0, 0
	for _, l := range vc.edgeLoad {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if total == 0 {
		return 1
	}
	return float64(maxLoad) * float64(vc.K) / float64(total)
}
