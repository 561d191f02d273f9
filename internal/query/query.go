// Package query defines the online h-hop traversal queries of Section 2.2
// and the hotspot workload generator of Section 4.1.
//
// The three query types — h-hop neighbour aggregation, h-step random walk
// with restart, and h-hop reachability — all explore a small region around
// a query node, which is exactly the access pattern smart routing exploits.
package query

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Type enumerates the online query kinds: the paper's three single-seed
// traversals, plus the multi-anchor classes beyond it — pattern matching,
// bounded reachability, embedding k-nearest.
type Type int

const (
	// NeighborAgg counts the distinct nodes within Hops of Node (optionally
	// only those carrying CountLabel).
	NeighborAgg Type = iota
	// RandomWalk runs Hops random-walk steps from Node, restarting to Node
	// with probability RestartProb at each step.
	RandomWalk
	// Reachability reports whether Target is reachable from Node within
	// Hops, via bidirectional BFS (forward over out-edges, backward over
	// in-edges).
	Reachability
	// PatternMatch counts the homomorphisms of a small edge-labelled
	// subgraph template (Pattern) into the graph. Distributed execution
	// expands a candidate ball around each anchored variable on its routed
	// processor and assembles the cross-partition join at the
	// router/session.
	PatternMatch
	// BoundedReach reports whether Target is reachable within Hops from any
	// of Anchors, by partial evaluation: each per-anchor subtask answers
	// its fragment with at most VisitBudget node expansions, and the
	// router/session composes the partial answers (relaunching frontier
	// nodes in later waves) without any single subtask ever exceeding the
	// per-partition budget.
	BoundedReach
	// KNearest returns the K nodes within Hops (undirected) of Node that
	// are nearest to it under the system's graph embedding. Distributed
	// execution generates the candidate ball on the processor owning the
	// anchor's neighbourhood, then re-ranks exactly at the coordinator
	// with the router's embedding: distance ties break toward the smaller
	// node id, so results are deterministic across transports.
	KNearest
)

func (t Type) String() string {
	switch t {
	case NeighborAgg:
		return "neighbor-agg"
	case RandomWalk:
		return "random-walk"
	case Reachability:
		return "reachability"
	case PatternMatch:
		return "pattern-match"
	case BoundedReach:
		return "bounded-reach"
	case KNearest:
		return "k-nearest"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// MultiAnchor reports whether t executes through the multi-anchor wave
// machinery: routed as per-anchor subtasks whose partials the
// router/session composes, rather than as a single destination query.
// KNearest rides the same machinery with a single anchor (candidate
// generation on the anchor's processor, exact re-rank at the
// coordinator).
func (t Type) MultiAnchor() bool {
	return t == PatternMatch || t == BoundedReach || t == KNearest
}

// Query is one online request. Over TCP it travels as Reads() of it: a
// field a kind starts to read must be kept there, or it never arrives.
type Query struct {
	ID   int
	Type Type
	// Node is the query node the router inspects when making its decision.
	Node graph.NodeID
	// Target is the destination node (Reachability only).
	Target graph.NodeID
	// Hops is h: the traversal depth / walk length.
	Hops int
	// RestartProb is the random walk's restart probability.
	RestartProb float64
	// CountLabel restricts NeighborAgg to nodes with this label ("" = all).
	CountLabel string
	// Dir is the traversal direction for NeighborAgg (Reachability always
	// searches forward+backward; walks follow Dir).
	Dir graph.Direction
	// Seed makes the random walk reproducible.
	Seed int64
	// Hotspot tags the workload region the query was drawn from.
	Hotspot int
	// Anchors are the source nodes of a BoundedReach query (nil otherwise).
	Anchors []graph.NodeID
	// Pattern is the subgraph template of a PatternMatch query (nil
	// otherwise).
	Pattern *Pattern
	// VisitBudget caps the node expansions of any single per-partition
	// subtask of a BoundedReach query.
	VisitBudget int
	// K is how many nearest neighbours a KNearest query returns
	// (1 <= K <= MaxKNearest).
	K int
}

// AnchorNodes returns the graph nodes the query is anchored at — the nodes
// whose existence admission checks probe, and the per-subtask routing keys
// of the multi-anchor kinds. Single-seed queries anchor at Node.
func (q Query) AnchorNodes() []graph.NodeID {
	switch q.Type {
	case PatternMatch:
		if q.Pattern != nil {
			return q.Pattern.AnchorNodes()
		}
		return nil
	case BoundedReach:
		return q.Anchors
	}
	return []graph.NodeID{q.Node}
}

// MaxKNearest caps K of a KNearest query. The bound keeps Result a
// fixed-size (comparable) value and the wire envelope small.
const MaxKNearest = 16

// Result is a query answer. Exactly one of the payload fields is
// meaningful, selected by Type. Results stay comparable with == (tests and
// experiments compare against the oracle that way), so payloads are
// scalars and fixed-size arrays only.
type Result struct {
	Type      Type
	Count     int          // NeighborAgg; KNearest: how many of Nearest are set
	EndNode   graph.NodeID // RandomWalk
	Reachable bool         // Reachability, BoundedReach
	Matches   int          // PatternMatch: homomorphism count
	// Nearest holds a KNearest answer: the first Count entries are the
	// neighbour ids in ascending embedding-distance order (ties broken by
	// node id); the rest stay zero.
	Nearest [MaxKNearest]graph.NodeID
}

// WorkloadSpec configures the hotspot workload of Section 4.1: "we select
// 100 nodes from the graph uniformly at random. Then, for each of these
// nodes, we select 10 different query nodes which are at most r-hops away
// ... all queries from the same hotspot are grouped together and sent
// consecutively."
type WorkloadSpec struct {
	NumHotspots       int // paper: 100
	QueriesPerHotspot int // paper: 10
	R                 int // hotspot radius (paper: 2 in most experiments)
	H                 int // traversal depth (paper: 2 in most experiments)
	// Types is the query mix, cycled per query (paper: "a uniform mixture
	// of above queries"). Empty means all three types.
	Types []Type
	// RestartProb applies to RandomWalk queries (paper: "a small
	// probability"; default 0.15).
	RestartProb float64
	// VisitBudget applies to BoundedReach queries (default 64).
	VisitBudget int
	// K applies to KNearest queries (default 8).
	K    int
	Seed int64
}

func (s WorkloadSpec) withDefaults() WorkloadSpec {
	if s.NumHotspots <= 0 {
		s.NumHotspots = 100
	}
	if s.QueriesPerHotspot <= 0 {
		s.QueriesPerHotspot = 10
	}
	if s.R <= 0 {
		s.R = 2
	}
	if s.H <= 0 {
		s.H = 2
	}
	if len(s.Types) == 0 {
		s.Types = []Type{NeighborAgg, RandomWalk, Reachability}
	}
	if s.RestartProb <= 0 {
		s.RestartProb = 0.15
	}
	if s.VisitBudget <= 0 {
		s.VisitBudget = 64
	}
	if s.K <= 0 {
		s.K = 8
	}
	return s
}

// MixedTypes is the full query mix including the multi-anchor kinds — the
// workload the patterns experiment and the cross-transport equivalence
// tests run.
var MixedTypes = []Type{NeighborAgg, PatternMatch, RandomWalk, BoundedReach, Reachability}

// MixedTypesKNN extends MixedTypes with KNearest — the mix for systems
// that carry an embedding (the oracle for KNearest needs one; see
// AnswerKNN).
var MixedTypesKNN = []Type{NeighborAgg, PatternMatch, RandomWalk, KNearest, BoundedReach, Reachability}

// Hotspot generates the workload over g. Hotspot centres are sampled from
// nodes with at least one edge (an isolated centre would make every query
// trivial); query nodes are drawn uniformly from each centre's r-hop
// neighbourhood, so any two queries from one hotspot are at most 2r apart.
// Reachability targets are drawn from the query node's h-hop region with
// probability 1/2 (usually reachable) and uniformly otherwise (usually
// not), exercising both bidirectional-BFS outcomes.
func Hotspot(g *graph.Graph, spec WorkloadSpec) []Query {
	spec = spec.withDefaults()
	rng := xrand.New(spec.Seed)
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return nil
	}
	eligible := make([]graph.NodeID, 0, len(nodes))
	for _, u := range nodes {
		if g.Degree(u) > 0 {
			eligible = append(eligible, u)
		}
	}
	if len(eligible) == 0 {
		eligible = nodes
	}

	queries := make([]Query, 0, spec.NumHotspots*spec.QueriesPerHotspot)
	id := 0
	for hs := 0; hs < spec.NumHotspots; hs++ {
		centre := eligible[rng.Intn(len(eligible))]
		region := regionOf(g, centre, spec.R)
		for q := 0; q < spec.QueriesPerHotspot; q++ {
			node := region[rng.Intn(len(region))]
			qt := spec.Types[id%len(spec.Types)]
			// Traversals follow out-edges (the natural direction for web
			// links, posts, citations); the h-hop region then stays a
			// small fraction of the graph, as the paper's workloads do.
			// Reachability still searches bidirectionally at execution.
			qu := Query{
				ID:          id,
				Type:        qt,
				Node:        node,
				Hops:        spec.H,
				RestartProb: spec.RestartProb,
				Dir:         graph.Out,
				Seed:        rng.Int63(),
				Hotspot:     hs,
			}
			switch qt {
			case Reachability:
				// Validate treats Target==0 on a nonzero Node as unset, so
				// redraw until valid (both candidate sets contain a nonzero
				// node — the region always includes the nonzero query node —
				// so the seeded redraw terminates deterministically).
				if rng.Float64() < 0.5 {
					tgtRegion := regionOf(g, node, spec.H)
					qu.Target = tgtRegion[rng.Intn(len(tgtRegion))]
					for qu.Target == 0 && qu.Node != 0 {
						qu.Target = tgtRegion[rng.Intn(len(tgtRegion))]
					}
				} else {
					qu.Target = nodes[rng.Intn(len(nodes))]
					for qu.Target == 0 && qu.Node != 0 {
						qu.Target = nodes[rng.Intn(len(nodes))]
					}
				}
			case PatternMatch:
				// Two region anchors sharing a free out-neighbour: the
				// smallest genuinely multi-anchor template (a distributed
				// join of two per-anchor candidate sets).
				a1, ok1 := anchorOf(rng, node, region, nodes)
				a2, ok2 := drawAnchor(rng, region, nodes)
				if !ok1 || !ok2 {
					// Degenerate graph with no anchorable (nonzero) node:
					// keep the slot with a single-seed query.
					qu.Type = NeighborAgg
					break
				}
				qu.Node = a1
				qu.Pattern = &Pattern{
					Nodes: []PatternNode{{Anchor: a1}, {Anchor: a2}, {}},
					Edges: []PatternEdge{{From: 0, To: 2}, {From: 1, To: 2}},
				}
			case BoundedReach:
				a1, ok := anchorOf(rng, node, region, nodes)
				if !ok {
					qu.Type = NeighborAgg
					break
				}
				qu.Node = a1
				qu.Anchors = []graph.NodeID{a1}
				for extra := 1 + rng.Intn(2); extra > 0; extra-- {
					if a, ok := drawAnchor(rng, region, nodes); ok && !slices.Contains(qu.Anchors, a) {
						qu.Anchors = append(qu.Anchors, a)
					}
				}
				qu.VisitBudget = spec.VisitBudget
				// Target drawn like Reachability's: half from the first
				// anchor's h-hop region (usually reachable), half uniform
				// (usually not). a1 is nonzero, so the redraw terminates.
				if rng.Float64() < 0.5 {
					tgtRegion := regionOf(g, a1, spec.H)
					for qu.Target == 0 {
						qu.Target = tgtRegion[rng.Intn(len(tgtRegion))]
					}
				} else {
					for qu.Target == 0 {
						qu.Target = nodes[rng.Intn(len(nodes))]
					}
				}
			case KNearest:
				a1, ok := anchorOf(rng, node, region, nodes)
				if !ok {
					qu.Type = NeighborAgg
					break
				}
				qu.Node = a1
				qu.K = spec.K
			}
			queries = append(queries, qu)
			id++
		}
	}
	return queries
}

// regionOf returns the sorted nodes within r hops of centre (following
// out-edges, the same direction the traversals take, so a hotspot's
// queries genuinely share neighbourhoods), always including centre itself.
func regionOf(g *graph.Graph, centre graph.NodeID, r int) []graph.NodeID {
	near := g.BFSBounded(centre, r, graph.Out)
	region := make([]graph.NodeID, 0, len(near))
	for v := range near {
		region = append(region, v)
	}
	// Sort for deterministic indexing (map order is random).
	slices.Sort(region)
	if len(region) == 0 {
		region = append(region, centre)
	}
	return region
}

// anchorOf returns node itself when it can anchor (nonzero), else a drawn
// substitute.
func anchorOf(rng *xrand.Source, node graph.NodeID, region, nodes []graph.NodeID) (graph.NodeID, bool) {
	if node != 0 {
		return node, true
	}
	return drawAnchor(rng, region, nodes)
}

// drawAnchor picks a nonzero node, preferring seeded draws from the
// hotspot region (so anchors stay clustered, the locality smart routing
// exploits), then deterministically scanning the region and finally the
// whole node set. ok is false only when the graph has no nonzero node at
// all.
func drawAnchor(rng *xrand.Source, region, nodes []graph.NodeID) (graph.NodeID, bool) {
	for tries := 0; tries < 8; tries++ {
		if v := region[rng.Intn(len(region))]; v != 0 {
			return v, true
		}
	}
	for _, v := range region {
		if v != 0 {
			return v, true
		}
	}
	for _, v := range nodes {
		if v != 0 {
			return v, true
		}
	}
	return 0, false
}

// Answer computes the reference result of q directly on the in-memory
// graph. The distributed engines must agree with it exactly; it is also
// the single-machine "oracle" used in tests.
func Answer(g *graph.Graph, q Query) Result {
	switch q.Type {
	case NeighborAgg:
		nb := g.KHopNeighborhood(q.Node, q.Hops, q.Dir)
		if q.CountLabel == "" {
			return Result{Type: q.Type, Count: len(nb)}
		}
		count := 0
		for _, v := range nb {
			if g.NodeLabel(v) == q.CountLabel {
				count++
			}
		}
		return Result{Type: q.Type, Count: count}
	case RandomWalk:
		rng := xrand.New(q.Seed)
		cur := q.Node
		for step := 0; step < q.Hops; step++ {
			if q.RestartProb > 0 && rng.Float64() < q.RestartProb {
				cur = q.Node
				continue
			}
			// Adjacency is sorted into storage order so the walk agrees
			// bit-for-bit with the storage-backed engines.
			next, ok := WalkStep(graph.SortedEdges(g.OutEdges(cur)), graph.SortedEdges(g.InEdges(cur)), q.Dir, rng)
			if !ok {
				cur = q.Node // dead end: restart
				continue
			}
			cur = next
		}
		return Result{Type: q.Type, EndNode: cur}
	case Reachability:
		d := g.HopDistance(q.Node, q.Target, q.Hops, graph.Out)
		return Result{Type: q.Type, Reachable: d != graph.Unreachable}
	case PatternMatch:
		if q.Pattern == nil {
			return Result{Type: q.Type}
		}
		return Result{Type: q.Type, Matches: q.Pattern.matchCount(g)}
	case BoundedReach:
		// The visit budget shapes distributed execution (how much any one
		// partition may expand per subtask), never the answer: partial
		// evaluation relaunches budget-truncated frontiers until the
		// composed answer is exact.
		for _, a := range q.Anchors {
			if g.HopDistance(a, q.Target, q.Hops, graph.Out) != graph.Unreachable {
				return Result{Type: q.Type, Reachable: true}
			}
		}
		return Result{Type: q.Type}
	case KNearest:
		// A KNearest answer depends on the embedding, which the graph alone
		// does not determine — use AnswerKNN with the system's coordinate
		// source.
		return Result{Type: q.Type}
	}
	return Result{Type: q.Type}
}

// CoordSource supplies node coordinates for KNearest evaluation. A nil
// row means the node is not embedded. *embed.Embedding satisfies it; so
// does any Embedder materialisation.
type CoordSource interface {
	Coords(u graph.NodeID) []float32
}

// AnswerKNN is the KNearest oracle: the reference result computed
// directly on the in-memory graph and an embedding. Candidates are every
// node within q.Hops undirected hops of q.Node (excluding q.Node);
// candidates without coordinates are unrankable and skipped; the K
// nearest by Euclidean embedding distance win, ties broken by node id.
// An unembedded anchor has no distances at all and answers empty. Both
// distributed engines must agree with this exactly.
func AnswerKNN(g *graph.Graph, coords CoordSource, q Query) Result {
	cands := g.KHopNeighborhood(q.Node, q.Hops, graph.Both)
	slices.Sort(cands)
	return KNNResult(coords, q, cands)
}

// KNNResult assembles a KNearest Result from an already-generated
// candidate set (sorted, duplicate-free, q.Node excluded): the step both
// distributed coordinators run after their processors report the
// hop-bounded ball. An unembedded anchor answers empty.
func KNNResult(coords CoordSource, q Query, cands []graph.NodeID) Result {
	res := Result{Type: q.Type}
	cu := coords.Coords(q.Node)
	if nanOrNil(cu) {
		return res
	}
	res.Count = copy(res.Nearest[:], RankNearest(cu, cands, coords, q.K))
	return res
}

// RankNearest orders candidate nodes by Euclidean embedding distance to
// the cu row (ties broken by node id, unembedded candidates dropped) and
// returns the nearest k — the exact re-rank both coordinators run.
// Candidates must be sorted and duplicate-free for the tie-break to be
// deterministic.
func RankNearest(cu []float32, cands []graph.NodeID, coords CoordSource, k int) []graph.NodeID {
	type scored struct {
		node graph.NodeID
		dist float64
	}
	ranked := make([]scored, 0, len(cands))
	for _, v := range cands {
		cv := coords.Coords(v)
		if nanOrNil(cv) {
			continue
		}
		var sum float64
		for i := range cu {
			d := float64(cu[i]) - float64(cv[i])
			sum += d * d
		}
		ranked = append(ranked, scored{node: v, dist: sum})
	}
	slices.SortFunc(ranked, func(a, b scored) int {
		switch {
		case a.dist < b.dist:
			return -1
		case a.dist > b.dist:
			return 1
		case a.node < b.node:
			return -1
		case a.node > b.node:
			return 1
		}
		return 0
	})
	if k > len(ranked) {
		k = len(ranked)
	}
	out := make([]graph.NodeID, k)
	for i := range out {
		out[i] = ranked[i].node
	}
	return out
}

// nanOrNil reports whether a coordinate row is missing or the NaN
// unembedded marker.
func nanOrNil(row []float32) bool {
	return len(row) == 0 || math.IsNaN(float64(row[0]))
}

// WalkStep picks a uniform neighbour in direction dir from the two
// adjacency lists; ok is false when there is none. The same helper drives
// both the oracle and the execution kernel so walks agree bit-for-bit.
func WalkStep(out, in []graph.Edge, dir graph.Direction, rng *xrand.Source) (graph.NodeID, bool) {
	nOut, nIn := len(out), len(in)
	switch dir {
	case graph.Out:
		nIn = 0
	case graph.In:
		nOut = 0
	}
	total := nOut + nIn
	if total == 0 {
		return 0, false
	}
	i := rng.Intn(total)
	if i < nOut {
		return out[i].To, true
	}
	return in[i-nOut].To, true
}
