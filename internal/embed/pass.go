package embed

import (
	"repro/internal/graph"
	"repro/internal/landmark"
)

// Build embeds the graph: every node by landmark MDS (lmds.go) — the
// landmarks by classical MDS of their hop distances, every other node
// triangulated from its distances to them — then one neighbour-averaging pass
// over the table (averageNeighbours). The landmark index supplies all
// required hop distances, so Build performs no additional BFS. It is serial
// and its output is a function of the graph, the index and the options.
//
// The placement fits node → landmark distances, and nothing in that keeps two
// adjacent nodes together: routed by the Simplex Downhill rows this package
// used to place, 49–64 % of a hotspot's consecutive queries on the 60 k-node
// WebGraph preset reached the same processor. The pass is what makes the
// table a routing table — 85–90 %, and the cache hits of a router told every
// query's hotspot (README, "Preprocessing"). It raises the landmark fit,
// which is not what the result is judged by.
func Build(g *graph.Graph, idx *landmark.Index, opts Options) (*Embedding, error) {
	e, err := landmarkRows(g, idx, opts)
	if err != nil {
		return nil, err
	}
	e.averageNeighbours(g)
	return e, nil
}

// averageNeighbours is Build's last step: one serial pass in ascending node
// id that replaces each embedded node's row by the mean of its neighbours'
// rows as they stand, out- and in-adjacency alike. It runs in place — a node
// sees the new rows of the lower ids and the placed rows of the higher ones —
// so it needs no second table. It reads the in-neighbours' ids (InIDs), so
// the graph never lays its in-view out for it.
func (e *Embedding) averageNeighbours(g *graph.Graph) {
	sum := make([]float64, e.D)
	for u := 0; u < e.NumNodes(); u++ {
		id := graph.NodeID(u)
		if nanRow(e.Coords(id)) {
			continue
		}
		clear(sum)
		n := 0
		for _, ed := range g.OutEdges(id) {
			n += e.addRow(sum, ed.To)
		}
		for _, v := range g.InIDs(id) {
			n += e.addRow(sum, v)
		}
		e.setMean(id, sum, n)
	}
}

// addRow adds v's row to sum and returns 1, or returns 0 and leaves sum
// alone when v is not embedded. Summed over a node's out-edges, then its
// in-edges, it is the neighbour mean's numerator, one term per edge.
func (e *Embedding) addRow(sum []float64, v graph.NodeID) int {
	row := e.Coords(v)
	if row == nil || nanRow(row) {
		return 0
	}
	for j, x := range row {
		sum[j] += float64(x)
	}
	return 1
}

// setMean sets u's row, which the table must already have, to sum / n, and
// reports whether it did: with n = 0 (no embedded neighbour) the row stays.
func (e *Embedding) setMean(u graph.NodeID, sum []float64, n int) bool {
	if n == 0 {
		return false
	}
	row := e.Coords(u)
	for j := range row {
		row[j] = float32(sum[j] / float64(n))
	}
	return true
}

// IncorporateNode places a (new) node without re-embedding anything else —
// the paper's update path for embed routing — by the step Build's pass
// applies to every node: the mean of its embedded neighbours in adj. A node
// with none is placed as Build places a node before the pass: triangulated
// from its landmark distances, which must be in idx (Index.IncorporateNode),
// or, when no landmark reaches it, at its seeded far-out point.
func (e *Embedding) IncorporateNode(adj graph.Adjacency, idx *landmark.Index, u graph.NodeID, opts Options) {
	e.grow(u)
	x := make([]float64, e.D)
	n := 0
	for _, es := range [2][]graph.Edge{adj.OutEdges(u), adj.InEdges(u)} {
		for _, ed := range es {
			n += e.addRow(x, ed.To)
		}
	}
	if e.setMean(u, x, n) {
		return
	}
	if reachable(idx, u) {
		newLMDS(idx, e.D).triangulate(idx, u, x)
	} else {
		farOut(x, opts.Seed, u)
	}
	e.setCoords(u, x)
}
