// Package partition implements the graph partitioners the compared systems
// rely on (Section 4.1, Related Work):
//
//   - Hash: the inexpensive murmur partitioning gRouting's storage tier
//     uses by default.
//   - LDG: linear deterministic greedy streaming partitioning (Stanton &
//     Kliot), a practical one-pass edge-cut heuristic.
//   - Refine: greedy move-based edge-cut refinement, standing in for the
//     METIS/ParMETIS pipeline SEDGE employs (the paper's point is only
//     that such partitioners are expensive and produce low cuts).
//   - GreedyVertexCut: PowerGraph's greedy edge-placement heuristic that
//     minimises vertex replication on power-law graphs.
package partition

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hash"
)

// EdgeCut assigns every node to one of K parts.
type EdgeCut struct {
	Of []int32 // node id -> part (-1 for tombstoned ids)
	K  int
}

// HashPartition places nodes by murmur hash — O(n), no structure awareness.
func HashPartition(g *graph.Graph, k int) *EdgeCut {
	a := newEdgeCut(g, k)
	for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
		if g.Exists(u) {
			a.Of[u] = int32(hash.Key64(uint64(u), 0) % uint64(k))
		}
	}
	return a
}

func newEdgeCut(g *graph.Graph, k int) *EdgeCut {
	a := &EdgeCut{Of: make([]int32, g.MaxNodeID()), K: k}
	for i := range a.Of {
		a.Of[i] = -1
	}
	return a
}

// LDG streams nodes in id order, placing each on the part holding most of
// its already-placed neighbours, weighted by remaining capacity:
// score(p) = |N(u) ∩ p| · (1 − size(p)/capacity). Capacity is
// (1+slack)·n/k.
func LDG(g *graph.Graph, k int, slack float64) *EdgeCut {
	a := newEdgeCut(g, k)
	n := g.NumNodes()
	capacity := float64(n)/float64(k)*(1+slack) + 1
	sizes := make([]int, k)
	neigh := make([]int, k)
	for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
		if !g.Exists(u) {
			continue
		}
		for i := range neigh {
			neigh[i] = 0
		}
		countNeighbor := func(v graph.NodeID) {
			if int(v) < len(a.Of) && a.Of[v] >= 0 {
				neigh[a.Of[v]]++
			}
		}
		for _, e := range g.OutEdges(u) {
			countNeighbor(e.To)
		}
		for _, e := range g.InEdges(u) {
			countNeighbor(e.To)
		}
		best, bestScore := 0, -1.0
		for p := 0; p < k; p++ {
			penalty := 1 - float64(sizes[p])/capacity
			if penalty < 0 {
				penalty = 0
			}
			score := float64(neigh[p])*penalty + penalty*1e-6 // tie-break by emptiness
			if score > bestScore {
				best, bestScore = p, score
			}
		}
		a.Of[u] = int32(best)
		sizes[best]++
	}
	return a
}

// Refine greedily moves nodes to the neighbouring part with the largest
// cut reduction, respecting a balance cap of (1+slack)·n/k, for the given
// number of passes. Applied after LDG it approximates the quality of a
// multilevel partitioner at a fraction of the complexity.
func Refine(g *graph.Graph, a *EdgeCut, passes int, slack float64) {
	n := g.NumNodes()
	capacity := int(float64(n)/float64(a.K)*(1+slack)) + 1
	sizes := make([]int, a.K)
	for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
		if g.Exists(u) && a.Of[u] >= 0 {
			sizes[a.Of[u]]++
		}
	}
	gain := make([]int, a.K)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
			if !g.Exists(u) || a.Of[u] < 0 {
				continue
			}
			for i := range gain {
				gain[i] = 0
			}
			count := func(v graph.NodeID) {
				if int(v) < len(a.Of) && a.Of[v] >= 0 {
					gain[a.Of[v]]++
				}
			}
			for _, e := range g.OutEdges(u) {
				count(e.To)
			}
			for _, e := range g.InEdges(u) {
				count(e.To)
			}
			cur := a.Of[u]
			best, bestGain := cur, gain[cur]
			for p := int32(0); p < int32(a.K); p++ {
				if p == cur || sizes[p] >= capacity {
					continue
				}
				if gain[p] > bestGain {
					best, bestGain = p, gain[p]
				}
			}
			if best != cur {
				sizes[cur]--
				sizes[best]++
				a.Of[u] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// CutFraction returns the fraction of live edges whose endpoints live in
// different parts — lower is better for BSP message traffic.
func (a *EdgeCut) CutFraction(g *graph.Graph) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	cut := 0
	for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
		if !g.Exists(u) {
			continue
		}
		for _, e := range g.OutEdges(u) {
			if int(e.To) < len(a.Of) && a.Of[u] != a.Of[e.To] {
				cut++
			}
		}
	}
	return float64(cut) / float64(g.NumEdges())
}

// Validate checks that every live node is assigned to a valid part.
func (a *EdgeCut) Validate(g *graph.Graph) error {
	for u := graph.NodeID(0); u < g.MaxNodeID(); u++ {
		if !g.Exists(u) {
			continue
		}
		if int(u) >= len(a.Of) || a.Of[u] < 0 || a.Of[u] >= int32(a.K) {
			return fmt.Errorf("partition: node %d unassigned or out of range", u)
		}
	}
	return nil
}
