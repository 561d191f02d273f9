// Package gen produces the seeded synthetic graphs that stand in for the
// paper's four datasets (Table 1: WebGraph, Friendster, Memetracker,
// Freebase).
//
// The originals are 50-106 M nodes and cannot be redistributed here, so each
// preset generates a scaled-down graph with the same *qualitative* profile
// the experiments depend on: heavy-tailed degree distributions, strongly
// overlapping h-hop neighbourhoods of nearby nodes (topology-aware
// locality, Figure 4), and the relative differences between datasets (e.g.
// Friendster's far larger average 2-hop neighbourhood, which weakens
// caching in Figure 16(b); Freebase's sparsity).
//
// All generators are deterministic given a seed. Those whose edges arrive
// grouped by source (LocalWeb, BarabasiAlbert, Cascade, Ring) write them
// into a graph.Bulk, which lays every adjacency out once at its final size;
// the rest grow one slice per node with AddEdgeFast.
package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// RMATOptions configures the recursive-matrix (R-MAT) generator used for
// the web-like preset. A, B, C, D are the quadrant probabilities and must
// sum to ~1; the classic skewed setting is 0.57/0.19/0.19/0.05.
type RMATOptions struct {
	Nodes      int
	Edges      int
	A, B, C, D float64
	Seed       int64
}

// RMAT generates a directed R-MAT graph. Self-loops are kept (they occur in
// web graphs); parallel edges are kept as in the multigraph model.
func RMAT(opt RMATOptions) *graph.Graph {
	if opt.A == 0 && opt.B == 0 && opt.C == 0 && opt.D == 0 {
		opt.A, opt.B, opt.C, opt.D = 0.57, 0.19, 0.19, 0.05
	}
	g := graph.NewWithCapacity(opt.Nodes)
	g.AddNodes(opt.Nodes)
	rng := xrand.New(opt.Seed)
	// levels = ceil(log2(n))
	levels := 0
	for 1<<levels < opt.Nodes {
		levels++
	}
	ab := opt.A + opt.B
	abc := opt.A + opt.B + opt.C
	for i := 0; i < opt.Edges; i++ {
		u, v := 0, 0
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < opt.A:
				// top-left: no bit set
			case r < ab:
				v |= 1 << l
			case r < abc:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u >= opt.Nodes || v >= opt.Nodes {
			// Out-of-range coordinates from the power-of-two envelope are
			// folded back to keep the edge count exact.
			u %= opt.Nodes
			v %= opt.Nodes
		}
		g.AddEdgeFast(graph.NodeID(u), graph.NodeID(v))
	}
	return g
}

// LocalWeb generates a web-like graph with the locality structure of real
// crawl graphs (e.g. uk-2007-05, where URLs sort lexicographically and
// most hyperlinks stay within a site): each node links mostly inside a
// sliding window of nearby ids, with a fraction of "global" links whose
// targets are skewed towards low-id hub pages. The result has heavy-tailed
// in-degree, strong topology-aware locality (Figure 4), and h-hop
// neighbourhoods that remain a tiny fraction of the graph — the regime the
// paper's workloads operate in.
func LocalWeb(n, m, window int, hubFrac float64, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	if window < 2 {
		window = 2
	}
	var b graph.Bulk
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		b.Begin(graph.NodeID(i))
		for k := 0; k < m; k++ {
			var v int
			if rng.Float64() < hubFrac {
				// Global link: cubing the uniform skews towards low ids,
				// making them hub pages with heavy in-degree tails.
				u := rng.Float64()
				v = int(u * u * u * float64(n))
			} else {
				// Local link within the window around i.
				v = i - window/2 + rng.Intn(window)
			}
			if v < 0 {
				v = 0
			}
			if v >= n {
				v = n - 1
			}
			if v == i {
				v = (i + 1) % n
			}
			b.Edge(graph.NodeID(v))
		}
	}
	return b.Graph()
}

// BarabasiAlbert generates a preferential-attachment graph: each new node
// attaches m directed edges to targets drawn proportionally to degree. It
// models the social-network preset (Friendster-like) whose hallmark is a
// large, well-connected 2-hop neighbourhood.
func BarabasiAlbert(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	var b graph.Bulk
	rng := xrand.New(seed)
	// repeated holds one entry per edge endpoint, so uniform sampling from
	// it is degree-proportional sampling.
	repeated := make([]graph.NodeID, 0, 2*n*m)
	start := m + 1
	if start > n {
		start = n
	}
	// Seed clique over the first start nodes.
	for i := 0; i < start; i++ {
		b.Begin(graph.NodeID(i))
		for j := 0; j < i; j++ {
			b.Edge(graph.NodeID(j))
			repeated = append(repeated, graph.NodeID(i), graph.NodeID(j))
		}
	}
	for i := start; i < n; i++ {
		u := graph.NodeID(i)
		b.Begin(u)
		for k := 0; k < m; k++ {
			var v graph.NodeID
			if len(repeated) == 0 {
				v = graph.NodeID(rng.Intn(i))
			} else {
				v = repeated[rng.Intn(len(repeated))]
			}
			b.Edge(v)
			repeated = append(repeated, u, v)
		}
	}
	return b.Graph()
}

// ErdosRenyi generates a uniform random directed graph with exactly edges
// edges (G(n, M) model). Used as a low-skew control in tests.
func ErdosRenyi(n, edges int, seed int64) *graph.Graph {
	g := graph.NewWithCapacity(n)
	g.AddNodes(n)
	rng := xrand.New(seed)
	for i := 0; i < edges; i++ {
		g.AddEdgeFast(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return g
}

// Cascade generates a news/meme-style citation cascade (Memetracker-like):
// node i links to a handful of earlier nodes, biased towards recent ones,
// occasionally "bursting" into a popular old node. Average out-degree is
// approximately avgDeg.
func Cascade(n int, avgDeg float64, seed int64) *graph.Graph {
	var b graph.Bulk
	if n > 0 {
		b.Begin(0) // node 0 cites nothing
	}
	rng := xrand.New(seed)
	for i := 1; i < n; i++ {
		b.Begin(graph.NodeID(i))
		deg := int(avgDeg)
		if rng.Float64() < avgDeg-float64(deg) {
			deg++
		}
		for k := 0; k < deg; k++ {
			var v int
			if rng.Float64() < 0.7 {
				// Recency bias: link within a sliding window.
				window := 1 + i/10
				v = i - 1 - rng.Intn(window)
				if v < 0 {
					v = 0
				}
			} else {
				// Popularity burst: uniform over all earlier nodes, which
				// combined with transitivity yields heavy-tailed in-degree.
				v = rng.Intn(i)
			}
			b.Edge(graph.NodeID(v))
		}
	}
	return b.Graph()
}

// KnowledgeGraph generates a sparse labelled entity-relation graph
// (Freebase-like): entities carry one of nTypes node labels, edges one of
// nRelations relation labels, and the edge density is below one edge per
// node, leaving many small components as in the real Freebase dump.
func KnowledgeGraph(n, edges, nTypes, nRelations int, seed int64) *graph.Graph {
	g := graph.NewWithCapacity(n)
	rng := xrand.New(seed)
	types := make([]string, nTypes)
	for i := range types {
		types[i] = fmt.Sprintf("type%d", i)
	}
	rels := make([]string, nRelations)
	for i := range rels {
		rels[i] = fmt.Sprintf("rel%d", i)
	}
	for i := 0; i < n; i++ {
		g.AddNode(types[rng.Intn(nTypes)])
	}
	// Hub-biased endpoints: a small fraction of entities (like "USA" or
	// "human") attract — and, as category/aggregate entities, emit — a
	// disproportionate number of relations. Hub out-links give queries
	// starting near a hub the non-trivial h-hop neighbourhoods the paper
	// observes on Freebase despite its sub-1 average degree.
	hubs := n / 500
	if hubs < 1 {
		hubs = 1
	}
	for i := 0; i < edges; i++ {
		u := graph.NodeID(rng.Intn(n))
		if rng.Float64() < 0.25 {
			u = graph.NodeID(rng.Intn(hubs))
		}
		var v graph.NodeID
		if rng.Float64() < 0.3 {
			v = graph.NodeID(rng.Intn(hubs))
		} else {
			v = graph.NodeID(rng.Intn(n))
		}
		// Endpoints always exist; error is impossible by construction.
		if err := g.AddEdge(u, v, rels[rng.Intn(nRelations)]); err != nil {
			panic(err)
		}
	}
	return g
}

// Grid generates an undirected-style w x h lattice (each lattice edge is
// added in both directions). Its regular structure gives exactly
// predictable BFS distances, which several tests rely on.
func Grid(w, h int) *graph.Graph {
	g := graph.NewWithCapacity(w * h)
	g.AddNodes(w * h)
	id := func(x, y int) graph.NodeID { return graph.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddEdgeFast(id(x, y), id(x+1, y))
				g.AddEdgeFast(id(x+1, y), id(x, y))
			}
			if y+1 < h {
				g.AddEdgeFast(id(x, y), id(x, y+1))
				g.AddEdgeFast(id(x, y+1), id(x, y))
			}
		}
	}
	return g
}

// Ring generates a directed cycle of n nodes: useful for worst-case
// diameter behaviour in tests.
func Ring(n int) *graph.Graph {
	var b graph.Bulk
	for i := 0; i < n; i++ {
		b.Begin(graph.NodeID(i))
		b.Edge(graph.NodeID((i + 1) % n))
	}
	return b.Graph()
}
