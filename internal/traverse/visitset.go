package traverse

import "repro/internal/graph"

// denseVisitedLimit caps the generation-mark array at 4M node ids (4 MB
// per set). Graphs with larger id spaces spill the tail into a map so huge
// sparse id spaces never pin hundreds of megabytes per executor.
const denseVisitedLimit = 1 << 22

// minDenseVisited keeps a fresh set from regrowing its window id by id.
const minDenseVisited = 1 << 10

// visitSet is a reusable visited set keyed by NodeID. Instead of a fresh
// map per query it keeps an epoch-stamped array: an id is visited in the
// current query iff its mark equals the current generation, so reset is a
// single counter bump. The dense window grows on demand to cover the ids
// it is asked to mark, up to denseVisitedLimit; ids at or beyond the limit
// fall back to a generation-stamped map. Marks are one byte because the
// networked processor keeps a set pair per executor and the window is what
// each one pins; the price is a wipe every 255 queries.
type visitSet struct {
	gen    uint8
	dense  []uint8
	sparse map[graph.NodeID]uint8
}

// reset starts a new query. O(1) except on generation wrap.
func (v *visitSet) reset() {
	v.gen++
	if v.gen == 0 { // wrapped: stale marks could collide, wipe everything
		v.gen = 1
		clear(v.dense)
		clear(v.sparse)
	}
}

// visit marks id and reports whether it was unvisited in this generation.
func (v *visitSet) visit(id graph.NodeID) bool {
	if int(id) < len(v.dense) {
		if v.dense[id] == v.gen {
			return false
		}
		v.dense[id] = v.gen
		return true
	}
	return v.visitBeyond(id)
}

// visitBeyond is visit for an id outside the dense window: below the limit
// the window grows to cover it (doubling, so amortised), else the id goes
// to the sparse map.
func (v *visitSet) visitBeyond(id graph.NodeID) bool {
	if id < denseVisitedLimit {
		n := min(max(int(id)+1, 2*len(v.dense), minDenseVisited), denseVisitedLimit)
		dense := make([]uint8, n)
		copy(dense, v.dense)
		v.dense = dense
		// Never marked: any earlier visit would have grown the window.
		v.dense[id] = v.gen
		return true
	}
	if v.sparse[id] == v.gen {
		return false
	}
	if v.sparse == nil {
		v.sparse = make(map[graph.NodeID]uint8)
	}
	v.sparse[id] = v.gen
	return true
}

// seen reports whether id is visited in the current generation.
func (v *visitSet) seen(id graph.NodeID) bool {
	if int(id) < len(v.dense) {
		return v.dense[id] == v.gen
	}
	return v.sparse[id] == v.gen
}
