// Package landmark implements the landmark machinery behind the paper's
// first smart routing scheme (Section 3.4.1).
//
// Landmarks are selected "based on their node degree and how well they
// spread over the entire graph": candidates are taken in decreasing degree
// order and discarded when they fall within a minimum hop separation of an
// already-chosen landmark. One multi-source BFS over the bi-directed graph,
// up to 64 landmarks sharing each edge scan (sweep.go), yields every
// landmark's distance field d(l, u); pivot landmarks are then spread across
// processors farthest-point style, every remaining landmark joins its
// closest pivot's processor, and the router keeps the O(n·P) table
// d(u, p) = min over landmarks assigned to p of d(l, u).
package landmark

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/graph"
)

// Inf is the distance recorded for unreachable node/landmark pairs.
const Inf uint16 = ^uint16(0)

// Index holds the selected landmarks and their BFS distance fields.
type Index struct {
	Landmarks []graph.NodeID
	// dist[i] is the bi-directed hop distance from Landmarks[i] to every
	// node id (Inf when unreachable), indexed by NodeID.
	dist [][]uint16
}

// Select picks up to count landmarks in decreasing degree order, skipping
// candidates closer than minSep hops (bi-directed) to an already selected
// landmark. It may return fewer than count landmarks on small or
// fragmented graphs.
func Select(g *graph.Graph, count, minSep int) []graph.NodeID {
	if count <= 0 {
		return nil
	}
	chosen := make([]graph.NodeID, 0, count)
	isChosen := make(map[graph.NodeID]bool, count)
	for _, cand := range nodesByDegreeDesc(g) {
		if len(chosen) == count {
			break
		}
		if degree(g, cand) == 0 {
			// Isolated nodes cannot anchor distances; and since candidates
			// come sorted by degree, everything after is isolated too.
			break
		}
		if minSep > 0 && len(chosen) > 0 && withinHops(g, cand, minSep-1, isChosen) {
			continue
		}
		chosen = append(chosen, cand)
		isChosen[cand] = true
	}
	return chosen
}

// degree is u's total degree, in + out, read off the out-view and the id
// in-adjacency: the preprocessing reads no in-edge's label, so it never
// lays the in-view out.
func degree(g *graph.Graph, u graph.NodeID) int {
	return len(g.OutEdges(u)) + len(g.InIDs(u))
}

// nodesByDegreeDesc returns g's live node ids sorted by total degree,
// highest first, ties broken by id.
func nodesByDegreeDesc(g *graph.Graph) []graph.NodeID {
	// One integer sort: a key is the complemented degree above the id, so
	// ascending keys run by degree down, then id up.
	keys := make([]uint64, 0, g.NumNodes())
	for id := range g.MaxNodeID() {
		if g.Exists(id) {
			keys = append(keys, uint64(^uint32(degree(g, id)))<<32|uint64(id))
		}
	}
	slices.Sort(keys)
	ids := make([]graph.NodeID, len(keys))
	for i, k := range keys {
		ids[i] = graph.NodeID(k)
	}
	return ids
}

// withinHops reports whether any target node lies within maxHops of src
// (bi-directed), aborting the BFS as soon as one is found — landmark
// selection probes this for every candidate, so early exit matters on
// dense graphs.
func withinHops(g *graph.Graph, src graph.NodeID, maxHops int, targets map[graph.NodeID]bool) bool {
	if targets[src] {
		return true
	}
	if maxHops <= 0 {
		return false
	}
	seen := map[graph.NodeID]struct{}{src: {}}
	frontier := []graph.NodeID{src}
	for h := 0; h < maxHops && len(frontier) > 0; h++ {
		var next []graph.NodeID
		visit := func(v graph.NodeID) bool {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				next = append(next, v)
			}
			return targets[v]
		}
		for _, u := range frontier {
			hit := false
			for _, e := range g.OutEdges(u) {
				hit = visit(e.To) || hit
			}
			for _, v := range g.InIDs(u) {
				hit = visit(v) || hit
			}
			if hit {
				return true
			}
		}
		frontier = next
	}
	return false
}

// BuildIndex computes every landmark's distance field over the bi-directed
// graph and returns the index: the O(|L|·e) preprocessing step of Table 2.
// The landmarks share one multi-source BFS per 64 of them (sweep.go), so
// the edges are scanned once per batch, not once per landmark; workers (0
// means GOMAXPROCS) split its bottom-up levels by node range, and its
// landmarks once it turns out deep and narrow. The fields are what a
// separate BFS from each landmark gives, whatever workers is.
func BuildIndex(g *graph.Graph, landmarks []graph.NodeID, workers int) *Index {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	idx := &Index{
		Landmarks: append([]graph.NodeID(nil), landmarks...),
		dist:      make([][]uint16, len(landmarks)),
	}
	// Every field in one allocation, set to Inf by doubling copies rather
	// than a store per slot. A row's capacity ends at its length, so a row
	// that grows (growTo) moves out instead of into its neighbour.
	n := int(g.MaxNodeID())
	block := make([]uint16, len(landmarks)*n)
	if len(block) > 0 {
		block[0] = Inf
		for k := 1; k < len(block); k *= 2 {
			copy(block[k:], block[:k])
		}
	}
	for i := range idx.dist {
		idx.dist[i] = block[i*n : (i+1)*n : (i+1)*n]
	}
	if len(landmarks) == 0 || n == 0 {
		return idx
	}
	s := newSweep(g, workers)
	defer s.stop()
	for lo := 0; lo < len(landmarks); lo += sweepBits {
		hi := min(lo+sweepBits, len(landmarks))
		s.run(idx.Landmarks[lo:hi], idx.dist[lo:hi])
	}
	return idx
}

// NumLandmarks returns the number of landmarks in the index.
func (idx *Index) NumLandmarks() int { return len(idx.Landmarks) }

// NumNodes returns the node-id capacity of the distance fields.
func (idx *Index) NumNodes() int {
	if len(idx.dist) == 0 {
		return 0
	}
	return len(idx.dist[0])
}

// Dist returns the hop distance from landmark i to node u (Inf when
// unreachable or out of range).
func (idx *Index) Dist(i int, u graph.NodeID) uint16 {
	if i < 0 || i >= len(idx.dist) || int(u) >= len(idx.dist[i]) {
		return Inf
	}
	return idx.dist[i][u]
}

// LandmarkDist returns the hop distance between landmarks i and j.
func (idx *Index) LandmarkDist(i, j int) uint16 {
	return idx.Dist(i, idx.Landmarks[j])
}

// StorageBytes reports the memory the distance fields occupy — the
// "preprocessing storage" quantity of Table 3.
func (idx *Index) StorageBytes() int64 {
	var total int64
	for _, d := range idx.dist {
		total += int64(len(d)) * 2
	}
	return total
}

// growTo extends every distance field to cover node ids < n, marking new
// slots unreachable.
func (idx *Index) growTo(n int) {
	for i := range idx.dist {
		for len(idx.dist[i]) < n {
			idx.dist[i] = append(idx.dist[i], Inf)
		}
	}
}

// IncorporateNode computes the distances of a (new) node u from every
// landmark by relaxing over its current neighbours in adj: d(l,u) =
// 1 + min over neighbours w of d(l,w). This is the paper's lightweight
// update path ("when a new node u is added, we compute the distance of
// this node to every landmark") — exact when the neighbours' distances are
// exact, an upper bound otherwise.
func (idx *Index) IncorporateNode(adj graph.Adjacency, u graph.NodeID) {
	idx.growTo(int(u) + 1)
	out, in := adj.OutEdges(u), adj.InEdges(u)
	for i := range idx.dist {
		idx.dist[i][u] = uint16(idx.relax(i, u, out, in))
	}
}

// relax is the step both update rules apply to a node u with adjacency out
// and in: landmark i's distance to it is 0 when u is the landmark, else
// 1 + the least distance to an endpoint in out or in (Inf when none has one).
func (idx *Index) relax(i int, u graph.NodeID, out, in []graph.Edge) uint32 {
	best := uint32(Inf)
	if idx.Landmarks[i] == u {
		best = 0
	}
	for _, es := range [2][]graph.Edge{out, in} {
		for _, e := range es {
			if int(e.To) < len(idx.dist[i]) {
				if d := idx.dist[i][e.To]; d != Inf && uint32(d)+1 < best {
					best = uint32(d) + 1
				}
			}
		}
	}
	return best
}

// RefreshAround re-relaxes the distance estimates of every node within
// hops of u in adj (bi-directed), the paper's edge-update rule ("for these
// two end-nodes and their neighbors up to a certain number of hops, we
// recompute their distances to every landmark"), and returns that region,
// u first. Estimates can only improve towards the true distance for
// additions; after a deletion they stay as stale upper bounds, since
// nothing rebuilds the index online.
func (idx *Index) RefreshAround(adj graph.Adjacency, u graph.NodeID, hops int) []graph.NodeID {
	region := bfsBounded(adj, u, hops)
	// Iterate a few relaxation rounds so improvements propagate inside the
	// region (distance corrections travel at one hop per round).
	for round := 0; round < hops+1; round++ {
		changed := false
		for _, v := range region {
			idx.growTo(int(v) + 1)
			out, in := adj.OutEdges(v), adj.InEdges(v)
			for i := range idx.dist {
				if best := idx.relax(i, v, out, in); uint16(best) < idx.dist[i][v] {
					idx.dist[i][v] = uint16(best)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return region
}

// bfsBounded returns the nodes within hops of src in adj, both directions,
// in BFS order from src.
func bfsBounded(adj graph.Adjacency, src graph.NodeID, hops int) []graph.NodeID {
	region, seen := []graph.NodeID{src}, map[graph.NodeID]bool{src: true}
	for h, start := 0, 0; h < hops; h++ {
		end := len(region)
		for _, v := range region[start:end] {
			for _, e := range slices.Concat(adj.OutEdges(v), adj.InEdges(v)) {
				if !seen[e.To] {
					seen[e.To] = true
					region = append(region, e.To)
				}
			}
		}
		start = end
	}
	return region
}

// Validate checks internal consistency (every distance field covers the
// same id range); it exists for tests and debugging.
func (idx *Index) Validate() error {
	for i := 1; i < len(idx.dist); i++ {
		if len(idx.dist[i]) != len(idx.dist[0]) {
			return fmt.Errorf("landmark: field %d covers %d ids, field 0 covers %d",
				i, len(idx.dist[i]), len(idx.dist[0]))
		}
	}
	if len(idx.dist) != len(idx.Landmarks) {
		return fmt.Errorf("landmark: %d fields for %d landmarks", len(idx.dist), len(idx.Landmarks))
	}
	return nil
}
