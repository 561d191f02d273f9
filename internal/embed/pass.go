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
// so it needs no second table.
func (e *Embedding) averageNeighbours(g *graph.Graph) {
	sum := make([]float64, e.D)
	for u := 0; u < e.NumNodes(); u++ {
		if id := graph.NodeID(u); !nanRow(e.Coords(id)) {
			e.neighbourMean(id, g.OutEdges(id), g.InEdges(id), sum)
		}
	}
}

// neighbourMean sets u's row, which the table must already have, to the mean
// of the rows of u's embedded neighbours, one term per edge of out and in (u's
// adjacency); sum is D floats of scratch. With no embedded neighbour the row
// stays and the result is false.
func (e *Embedding) neighbourMean(u graph.NodeID, out, in []graph.Edge, sum []float64) bool {
	clear(sum)
	n := 0
	for _, adj := range [2][]graph.Edge{out, in} {
		for _, ed := range adj {
			row := e.Coords(ed.To)
			if row == nil || nanRow(row) {
				continue
			}
			for j, v := range row {
				sum[j] += float64(v)
			}
			n++
		}
	}
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
	if e.neighbourMean(u, adj.OutEdges(u), adj.InEdges(u), x) {
		return
	}
	if reachable(idx, u) {
		newLMDS(idx, e.D).triangulate(idx, u, x)
	} else {
		farOut(x, opts.Seed, u)
	}
	e.setCoords(u, x)
}
