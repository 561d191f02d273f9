package landmark

import "repro/internal/graph"

// bfsInto computes hop distances from src to every node, following dir
// edges, into dist, of length MaxNodeID(): indexed by NodeID, with
// graph.Unreachable for nodes the search cannot reach (including tombstoned
// ids). queue is scratch whose contents do not matter, returned (grown if it
// had to be) for the next call. With a queue of capacity MaxNodeID() a
// search allocates nothing.
//
// It is the oracle BuildIndex must equal: one search per landmark, run with
// Both, matching the paper's bi-directed view of the graph.
func bfsInto(g *graph.Graph, src graph.NodeID, dir graph.Direction, dist []int32, queue []graph.NodeID) []graph.NodeID {
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	if !g.Exists(src) {
		return queue
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	// The head is an index, not a re-slice: queue[1:] gives up the front of
	// the backing array, and every append past its shrunken end reallocates.
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		var lists [2][]graph.Edge // the in-view, not the id index BuildIndex reads
		if dir != graph.In {
			lists[0] = g.OutEdges(u)
		}
		if dir != graph.Out {
			lists[1] = g.InEdges(u)
		}
		for _, es := range lists {
			for _, e := range es {
				if dist[e.To] == graph.Unreachable {
					dist[e.To] = du + 1
					queue = append(queue, e.To)
				}
			}
		}
	}
	return queue
}
