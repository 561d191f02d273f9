package partition

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// VertexCut assigns every directed edge to one of K (≤ 64) parts; a vertex
// is replicated on every part that holds one of its edges, as in
// PowerGraph's GAS model.
type VertexCut struct {
	K int
	// EdgeOf[u][i] is the part of the i-th out-edge of u (parallel to
	// g.OutEdges(u) at construction time).
	EdgeOf [][]uint8
	// replicas[u] is the bitmask of parts hosting a replica of u.
	replicas []uint64
	// edgeLoad counts edges per part.
	edgeLoad []int
}

// GreedyVertexCut places edges with PowerGraph's greedy heuristic:
//
//  1. if the endpoints' replica sets intersect, pick the least-loaded
//     common part;
//  2. else if both endpoints have replicas, pick the least-loaded part
//     among their union;
//  3. else if one endpoint has replicas, pick its least-loaded part;
//  4. else pick the globally least-loaded part.
func GreedyVertexCut(g *graph.Graph, k int) (*VertexCut, error) {
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("partition: vertex cut supports 1..64 parts, got %d", k)
	}
	vc := &VertexCut{
		K:        k,
		EdgeOf:   make([][]uint8, g.MaxNodeID()),
		replicas: make([]uint64, g.MaxNodeID()),
		edgeLoad: make([]int, k),
	}
	leastLoaded := func(mask uint64) int {
		best, bestLoad := -1, int(^uint(0)>>1)
		for p := 0; p < k; p++ {
			if mask&(1<<uint(p)) == 0 {
				continue
			}
			if vc.edgeLoad[p] < bestLoad {
				best, bestLoad = p, vc.edgeLoad[p]
			}
		}
		return best
	}
	allMask := uint64(1)<<uint(k) - 1
	if k == 64 {
		allMask = ^uint64(0)
	}
	assigned := 0
	for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
		if !g.Exists(u) {
			continue
		}
		out := g.OutEdges(u)
		vc.EdgeOf[u] = make([]uint8, len(out))
		for i, e := range out {
			ru, rv := vc.replicas[u], vc.replicas[e.To]
			var p int
			switch {
			case ru&rv != 0:
				p = leastLoaded(ru & rv)
			case ru != 0 && rv != 0:
				p = leastLoaded(ru | rv)
			case ru != 0:
				p = leastLoaded(ru)
			case rv != 0:
				p = leastLoaded(rv)
			default:
				p = leastLoaded(allMask)
			}
			// Balance guard (PowerGraph bounds imbalance the same way):
			// when affinity would overload a part, fall back to the
			// globally least-loaded one instead.
			if cap := assigned/k + assigned/(5*k) + 8; vc.edgeLoad[p] >= cap {
				p = leastLoaded(allMask)
			}
			assigned++
			vc.EdgeOf[u][i] = uint8(p)
			vc.replicas[u] |= 1 << uint(p)
			vc.replicas[e.To] |= 1 << uint(p)
			vc.edgeLoad[p]++
		}
	}
	return vc, nil
}

// Replicas returns the number of parts hosting node u.
func (vc *VertexCut) Replicas(u graph.NodeID) int {
	if int(u) >= len(vc.replicas) {
		return 0
	}
	return bits.OnesCount64(vc.replicas[u])
}

// ReplicationFactor is the average replica count over nodes with at least
// one replica — PowerGraph's headline partition-quality metric.
func (vc *VertexCut) ReplicationFactor() float64 {
	total, nodes := 0, 0
	for _, m := range vc.replicas {
		if m != 0 {
			total += bits.OnesCount64(m)
			nodes++
		}
	}
	if nodes == 0 {
		return 0
	}
	return float64(total) / float64(nodes)
}
