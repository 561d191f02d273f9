// Package mquery plans and executes multi-anchor queries: distributed
// graph-pattern matching (query.PatternMatch) and bounded reachability via
// partial evaluation (query.BoundedReach).
//
// A multi-anchor query has several home processors, one per anchor node, so
// it cannot be routed as a single unit. NewPlan decomposes it into
// per-anchor Subtasks; the transport routes each subtask through its
// Strategy (per-anchor by default), executes it on a processor with Run —
// which touches only the storage tier, via the same Fetch interface both
// transports already expose — and feeds the resulting Partials to a Merger,
// which assembles the exact answer:
//
//   - PatternMatch subtasks materialise a bounded candidate ball around
//     their anchor and report the pattern-edge relations (pairs of graph
//     nodes) visible from it; the Merger unions the relations and runs the
//     template join, counting homomorphisms exactly as the oracle does.
//   - BoundedReach subtasks run a budgeted BFS toward the target and report
//     either success or their truncated frontier; the Merger relaunches
//     frontier nodes as new subtasks in later waves (partial evaluation),
//     so the answer is exact while the visit budget is enforced per
//     subtask: no subtask expands more than the budget, but a wave can
//     give one processor several subtasks, so a processor's share of a
//     wave is not bounded by it.
package mquery

import (
	"repro/internal/graph"
	"repro/internal/gstore"
)

// Kind discriminates the two subtask families.
type Kind uint8

const (
	// KindPattern expands a candidate ball and extracts edge relations.
	KindPattern Kind = 1
	// KindReach runs one budgeted BFS fragment toward the target.
	KindReach Kind = 2
	// KindKNN materialises the hop-bounded candidate ball of a KNearest
	// query. Ranking happens at the coordinator, which holds the
	// embedding; the processors only generate candidates.
	KindKNN Kind = 3
)

// EdgeTask is one pattern edge a subtask must extract relations for. Labels
// are pre-resolved against the dataset's intern table at plan time (the
// networked processors hold no label table); -1 means unconstrained. A
// nonzero FromAnchor/ToAnchor pins that endpoint to a concrete node.
type EdgeTask struct {
	// Edge indexes the pattern's Edges slice.
	Edge int
	// FromLabel and ToLabel constrain the endpoint node labels (-1 = any).
	FromLabel int32
	ToLabel   int32
	// EdgeLabel constrains the graph edge's label (-1 = any).
	EdgeLabel int32
	// FromAnchor and ToAnchor pin endpoints to anchored variables' nodes.
	FromAnchor graph.NodeID
	ToAnchor   graph.NodeID
}

// Subtask is one routed unit of multi-anchor work, executed on a single
// processor against the storage tier.
type Subtask struct {
	Kind   Kind
	Anchor graph.NodeID
	// Radius bounds the candidate ball of a KindPattern subtask.
	Radius int
	// Edges are the pattern edges this subtask owns (KindPattern).
	Edges []EdgeTask
	// Target, Hops and Budget shape a KindReach fragment: a BFS from Anchor
	// toward Target, at most Hops levels, expanding at most Budget nodes.
	Target graph.NodeID
	Hops   int
	Budget int
}

// Pair is one tuple of a pattern-edge relation: a concrete graph edge
// From→To satisfying the EdgeTask's constraints.
type Pair struct {
	From graph.NodeID
	To   graph.NodeID
}

// EdgeRel is the relation a subtask extracted for one pattern edge.
type EdgeRel struct {
	Edge int
	// Pairs travel as two columns of id deltas (From, To): any order
	// round-trips, and Run's ascending (From, To) order is what keeps them
	// small.
	Pairs []Pair
}

// Boundary is one truncated frontier entry of a KindReach subtask: Node was
// discovered but not expanded, with Hops BFS levels still allowed from it.
// The Merger relaunches it as a fresh subtask in a later wave.
type Boundary struct {
	Node graph.NodeID
	Hops int
}

// Partial is one subtask's result.
type Partial struct {
	Kind   Kind
	Anchor graph.NodeID
	// Rels are the extracted pattern-edge relations (KindPattern).
	Rels []EdgeRel
	// Found reports the target was reached (KindReach).
	Found bool
	// NoAnchor reports that the subtask fetched Anchor and the storage tier
	// holds no record for it. The Merger turns that into
	// query.ErrUnknownNode when Anchor is one of the query's own anchors; a
	// relaunched boundary node may be a dangling id and is allowed to be.
	NoAnchor bool
	// Frontier is the truncated frontier to relaunch (KindReach, when the
	// budget ran out before the search did). Its nodes travel as id deltas:
	// any order round-trips, and Run's ascending order keeps them small.
	Frontier []Boundary
	// Candidates are the ball nodes of a KindKNN subtask (sorted, anchor
	// excluded). The coordinator re-ranks them by embedding distance. They
	// travel as id deltas: any order round-trips, and ascending order is
	// what makes the list small (about a byte per id for a 2-hop ball).
	Candidates []graph.NodeID
	// Visited counts the nodes this subtask expanded — the quantity the
	// per-partition budget bounds. The Merger rejects any KindReach partial
	// whose Visited exceeds the plan's budget, so a budget violation is a
	// structural error, not a silent inaccuracy.
	Visited int
}

// Fetch retrieves storage records for a batch of node ids. Ids without a
// record are simply absent from the returned map. Both transports provide
// this: the virtual-time engine from its partitioned stores (billing each
// batch on the contention timeline), the networked processor from its
// storage clients + cache.
type Fetch func(ids []graph.NodeID) (map[graph.NodeID]gstore.Record, error)
