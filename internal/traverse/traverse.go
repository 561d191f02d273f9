// Package traverse is the one execution kernel for the paper's three point
// queries (Section 2.2): levelwise batched BFS for h-hop neighbour
// aggregation, the seeded random walk with restart, and bidirectional BFS
// for h-hop reachability. The processing tier is stateless and uniform
// (Section 2.3), so the algorithm is the same wherever it runs: the kernel
// owns the traversal and its scratch, and each transport — the virtual-time
// engine in internal/core, the networked processor in internal/rpc — plugs
// in a Fetcher that supplies records and does its own billing. query.Answer
// stays separate: it is the reference the tests compare Run against.
package traverse

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/query"
	"repro/internal/xrand"
)

// Fetcher is a transport's record source for one execution.
type Fetcher interface {
	// Fetch returns the records of ids, positionally (OK is false for an id
	// with no stored record). The slice is valid only until the next Fetch,
	// but the records' edge lists until the execution ends: the executor
	// decodes every record of one point query or subtask into one arena and
	// frees it only when the next begins. ids is not retained. dir is what
	// the caller reads of the records: under graph.Out their labels and
	// out-lists only, which is all storage then ships (In may come back
	// nil).
	Fetch(ids []graph.NodeID, dir graph.Direction) ([]gstore.FetchResult, error)
	// Expanded reports n nodes expanded out of the last Fetch's records:
	// where the virtual-time engine bills traversal compute.
	Expanded(n int)
}

// LabelFilter is a NeighborAgg label filter already resolved against the
// graph's label table, which only the side holding the graph can do. The
// zero value counts every node.
type LabelFilter struct {
	On, Known bool        // On: count only Label; !Known: no node carries it
	Label     graph.Label // resolved id of the query's CountLabel
}

// Scratch is one executor's reusable workspace, overwritten per query so a
// warm Scratch runs without allocating. Not safe for concurrent use.
type Scratch struct {
	visited  visitSet // BFS visited / forward reachability side
	visitedB visitSet // backward reachability side
	frontier []graph.NodeID
	next     []graph.NodeID
	spare    []graph.NodeID  // third buffer for the bidirectional search
	one      [1]graph.NodeID // single-id frontier for random-walk steps
	rng      xrand.Source    // the walk's stream, reseeded per query
}

// Retained returns the entry count of the largest table a past traversal
// grew in sc, so an owner can drop a Scratch a giant query bloated. The dense
// visit windows do not count: they follow the graph's id range, not the
// traversal's size, and are capped by denseVisitedLimit.
func (sc *Scratch) Retained() int {
	return max(cap(sc.frontier), cap(sc.next), cap(sc.spare), len(sc.visited.sparse), len(sc.visitedB.sparse))
}

// Run executes one point query against f. Its result agrees exactly with
// query.Answer over the graph f serves; a Fetch error aborts the query and
// is returned as is.
func (sc *Scratch) Run(f Fetcher, q query.Query, lf LabelFilter) (query.Result, error) {
	switch q.Type {
	case query.NeighborAgg:
		return sc.neighborAgg(f, q, lf)
	case query.RandomWalk:
		return sc.randomWalk(f, q)
	case query.Reachability:
		return sc.reachability(f, q)
	}
	return query.Result{}, fmt.Errorf("%w: %v is not a point query", query.ErrBadQuery, q.Type)
}

// appendUnvisited extends next with every endpoint of edges not yet in
// vis, marking it. Open-coded (no closure) so expansion never allocates.
func appendUnvisited(next []graph.NodeID, edges []graph.Edge, vis *visitSet) []graph.NodeID {
	for _, e := range edges {
		if vis.visit(e.To) {
			next = append(next, e.To)
		}
	}
	return next
}

// neighborAgg is the h-hop neighbour aggregation: levelwise BFS, one
// batched fetch per frontier. Every node within h hops has its label and
// the edge lists q.Dir follows retrieved — under graph.Out its label and
// out-list, the out-prefix of its record — matching the paper's accounting
// where a query touches its whole h-hop neighbourhood.
func (sc *Scratch) neighborAgg(f Fetcher, q query.Query, lf LabelFilter) (query.Result, error) {
	sc.visited.reset()
	sc.visited.visit(q.Node)
	frontier := append(sc.frontier[:0], q.Node)
	next := sc.next[:0]
	count := 0
	for level := 0; level <= q.Hops && len(frontier) > 0; level++ {
		recs, err := f.Fetch(frontier, q.Dir)
		if err != nil {
			return query.Result{}, err
		}
		switch {
		case level == 0: // the query node itself is not counted
		case !lf.On:
			count += len(frontier)
		case lf.Known:
			for i := range recs {
				if recs[i].OK && recs[i].Record.NodeLabel == lf.Label {
					count++
				}
			}
		}
		if level == q.Hops {
			break
		}
		next = next[:0]
		for i := range recs {
			fr := &recs[i]
			if fr.OK && q.Dir != graph.In {
				next = appendUnvisited(next, fr.Record.Out, &sc.visited)
			}
			if fr.OK && q.Dir != graph.Out {
				next = appendUnvisited(next, fr.Record.In, &sc.visited)
			}
		}
		f.Expanded(len(next))
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next
	return query.Result{Type: q.Type, Count: count}, nil
}

// randomWalk replays the oracle's exact random sequence against
// storage-backed adjacency: one fetch per step (a walk cannot be batched —
// each step depends on the previous).
func (sc *Scratch) randomWalk(f Fetcher, q query.Query) (query.Result, error) {
	rng := &sc.rng
	rng.Seed(q.Seed)
	cur := q.Node
	for step := 0; step < q.Hops; step++ {
		if q.RestartProb > 0 && rng.Float64() < q.RestartProb {
			cur = q.Node
			continue
		}
		sc.one[0] = cur
		recs, err := f.Fetch(sc.one[:], q.Dir)
		if err != nil {
			return query.Result{}, err
		}
		var out, in []graph.Edge // no edges when dangling: a dead end
		if fr := &recs[0]; fr.OK {
			out, in = fr.Record.Out, fr.Record.In
		}
		next, ok := query.WalkStep(out, in, q.Dir, rng)
		if !ok {
			cur = q.Node
			continue
		}
		cur = next
		f.Expanded(1)
	}
	return query.Result{Type: q.Type, EndNode: cur}, nil
}

// reachability is the bidirectional BFS of Section 2.2: forward over
// out-edges from the source, backward over in-edges from the target
// (records carry both directions), expanding the smaller frontier first,
// with at most q.Hops level expansions in total.
func (sc *Scratch) reachability(f Fetcher, q query.Query) (query.Result, error) {
	if q.Node == q.Target || q.Hops <= 0 {
		return query.Result{Type: q.Type, Reachable: q.Node == q.Target}, nil
	}
	sc.visited.reset()
	sc.visitedB.reset()
	sc.visited.visit(q.Node)
	sc.visitedB.visit(q.Target)
	fFront := append(sc.frontier[:0], q.Node)
	bFront := append(sc.next[:0], q.Target)
	spare := sc.spare
	reachable := false
	for levels := 0; levels < q.Hops && !reachable && len(fFront) > 0 && len(bFront) > 0; levels++ {
		forward := len(fFront) <= len(bFront)
		front, mine, other, dir := fFront, &sc.visited, &sc.visitedB, graph.Out
		if !forward {
			front, mine, other, dir = bFront, other, mine, graph.In
		}
		recs, err := f.Fetch(front, dir)
		if err != nil {
			return query.Result{}, err
		}
		next := spare[:0]
		for i := range recs {
			if !recs[i].OK {
				continue
			}
			edges := recs[i].Record.Out
			if !forward {
				edges = recs[i].Record.In
			}
			for _, e := range edges {
				if other.seen(e.To) {
					reachable = true
				}
				if mine.visit(e.To) {
					next = append(next, e.To)
				}
			}
		}
		f.Expanded(len(next))
		if forward {
			spare, fFront = fFront, next
		} else {
			spare, bFront = bFront, next
		}
	}
	sc.frontier, sc.next, sc.spare = fFront, bFront, spare
	return query.Result{Type: q.Type, Reachable: reachable}, nil
}
