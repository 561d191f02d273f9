package mquery

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/query"
	"repro/internal/traverse"
)

// Run executes one subtask against the storage tier. It returns the
// partial result and the compute units consumed (nodes expanded plus edges
// scanned — the quantity the virtual-time engine bills at ComputePerNode).
// Run is deterministic: frontiers are sorted before every expansion, so
// both transports produce identical partials for identical stores.
func Run(st Subtask, fetch Fetch) (Partial, int, error) {
	switch st.Kind {
	case KindPattern:
		return runPattern(st, fetch)
	case KindReach:
		return runReach(st, fetch)
	case KindKNN:
		return runKNN(st, fetch)
	}
	return Partial{}, 0, fmt.Errorf("%w: unknown subtask kind %d", query.ErrBadQuery, st.Kind)
}

// FetchOver adapts a transport's positional traverse.Fetcher to the
// map-returning Fetch that Run executes against: ids without a record are
// absent from the map. Subtasks read whole records (graph.Both).
func FetchOver(f traverse.Fetcher) Fetch {
	return func(ids []graph.NodeID) (map[graph.NodeID]gstore.Record, error) {
		recs, err := f.Fetch(ids, graph.Both)
		if err != nil {
			return nil, err
		}
		out := make(map[graph.NodeID]gstore.Record, len(ids))
		for i := range recs {
			if recs[i].OK {
				out[ids[i]] = recs[i].Record
			}
		}
		return out, nil
	}
}

// ball runs the levelwise BFS over the Radius-bounded undirected ball
// around st.Anchor that the pattern and k-NN subtasks share. Each level's
// frontier is sorted before it is fetched; visit sees every ball node that
// has a record (a dangling id has no record, no edges and no matches), in
// fetch order — so it sees nothing at all exactly when the anchor itself has
// no record. It returns the compute units consumed: one per node fetched
// plus one per edge scanned.
func ball(st Subtask, fetch Fetch, visit func(u graph.NodeID, rec gstore.Record)) (int, error) {
	frontier := []graph.NodeID{st.Anchor}
	seen := map[graph.NodeID]bool{st.Anchor: true}
	units := 0
	for depth := 0; depth <= st.Radius && len(frontier) > 0; depth++ {
		got, err := fetch(frontier)
		if err != nil {
			return units, err
		}
		units += len(frontier)
		var next []graph.NodeID
		for _, u := range frontier {
			rec, ok := got[u]
			if !ok {
				continue
			}
			visit(u, rec)
			if depth == st.Radius {
				continue
			}
			for _, edges := range [2][]graph.Edge{rec.Out, rec.In} {
				for _, e := range edges {
					units++
					if !seen[e.To] {
						seen[e.To] = true
						next = append(next, e.To)
					}
				}
			}
		}
		slices.Sort(next)
		frontier = next
	}
	return units, nil
}

// runPattern materialises the radius-bounded undirected ball around the
// anchor, then extracts each owned pattern edge's relation from it. Every
// node a match could bind near this anchor lies within the ball (the
// pattern path from the anchor's variable maps to a graph path of the same
// length), so the extracted relations are complete for the join.
func runPattern(st Subtask, fetch Fetch) (Partial, int, error) {
	recs := make(map[graph.NodeID]gstore.Record)
	nodes := make([]graph.NodeID, 0, 16) // fetch order: sorted per level
	units, err := ball(st, fetch, func(u graph.NodeID, rec gstore.Record) {
		recs[u] = rec
		nodes = append(nodes, u)
	})
	if err != nil {
		return Partial{}, units, err
	}

	rels := make([]EdgeRel, 0, len(st.Edges))
	for _, et := range st.Edges {
		var pairs []Pair
		for _, u := range nodes {
			if et.FromAnchor != 0 && u != et.FromAnchor {
				continue
			}
			rec := recs[u]
			if et.FromLabel >= 0 && int32(rec.NodeLabel) != et.FromLabel {
				continue
			}
			for _, e := range rec.Out {
				units++
				if et.EdgeLabel >= 0 && int32(e.Label) != et.EdgeLabel {
					continue
				}
				v := e.To
				if et.ToAnchor != 0 && v != et.ToAnchor {
					continue
				}
				vr, ok := recs[v]
				if !ok {
					continue // endpoint outside the ball cannot be in a match near this anchor
				}
				if et.ToLabel >= 0 && int32(vr.NodeLabel) != et.ToLabel {
					continue
				}
				pairs = append(pairs, Pair{From: u, To: v})
			}
		}
		// Dedup: two parallel edges with different labels satisfy an
		// unlabelled EdgeTask as the same binding (the constraint is
		// existence), and must count once in the join.
		slices.SortFunc(pairs, func(a, b Pair) int {
			if a.From != b.From {
				return int(a.From) - int(b.From)
			}
			return int(a.To) - int(b.To)
		})
		pairs = slices.Compact(pairs)
		rels = append(rels, EdgeRel{Edge: et.Edge, Pairs: pairs})
	}
	return Partial{Kind: KindPattern, Anchor: st.Anchor, Rels: rels, NoAnchor: len(nodes) == 0, Visited: len(nodes)}, units, nil
}

// runKNN materialises the same ball and reports its node ids (anchor
// excluded, sorted) as KNearest candidates. No distances are computed
// here: the coordinator holds the embedding and re-ranks exactly, so the
// partial stays transport-independent.
func runKNN(st Subtask, fetch Fetch) (Partial, int, error) {
	var cands []graph.NodeID
	visited := 0
	units, err := ball(st, fetch, func(u graph.NodeID, _ gstore.Record) {
		visited++
		if u != st.Anchor {
			cands = append(cands, u)
		}
	})
	if err != nil {
		return Partial{}, units, err
	}
	slices.Sort(cands)
	return Partial{Kind: KindKNN, Anchor: st.Anchor, Candidates: cands, NoAnchor: visited == 0, Visited: visited}, units, nil
}

// runReach runs one budgeted BFS fragment: levelwise out-edge BFS from the
// anchor toward the target, expanding at most Budget nodes. Nodes the
// budget leaves unexpanded — and any live frontier when it runs out — are
// reported as Boundary entries with their remaining hop allowance, for the
// Merger to relaunch. The budget therefore shapes execution, never the
// answer.
func runReach(st Subtask, fetch Fetch) (Partial, int, error) {
	if st.Anchor == st.Target {
		return Partial{Kind: KindReach, Anchor: st.Anchor, Found: true}, 0, nil
	}
	budget := st.Budget
	if budget < 1 {
		budget = 1 // degenerate subtask still makes progress
	}
	units := 0
	visited := 0
	noAnchor := false
	var boundary []Boundary
	seen := map[graph.NodeID]bool{st.Anchor: true}
	cur := []graph.NodeID{st.Anchor}
	for r := st.Hops; r > 0 && len(cur) > 0; {
		expand := cur
		if len(expand) > budget {
			// Over-budget remainder: discovered, never expanded. Relaunch
			// with the full remaining allowance r.
			for _, n := range expand[budget:] {
				boundary = append(boundary, Boundary{Node: n, Hops: r})
			}
			expand = expand[:budget]
		}
		budget -= len(expand)
		got, err := fetch(expand)
		if err != nil {
			return Partial{}, units, err
		}
		visited += len(expand)
		units += len(expand)
		var next []graph.NodeID
		for _, u := range expand {
			rec, ok := got[u]
			if !ok {
				if u == st.Anchor {
					noAnchor = true
				}
				continue
			}
			for _, e := range rec.Out {
				units++
				if e.To == st.Target {
					return Partial{Kind: KindReach, Anchor: st.Anchor, Found: true, Visited: visited}, units, nil
				}
				if !seen[e.To] {
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		slices.Sort(next)
		cur = next
		r--
		if budget == 0 && r > 0 && len(cur) > 0 {
			// Budget exhausted with the search still live: hand the whole
			// frontier (remaining allowance r) to the next wave.
			for _, n := range cur {
				boundary = append(boundary, Boundary{Node: n, Hops: r})
			}
			cur = nil
		}
	}
	slices.SortFunc(boundary, func(a, b Boundary) int {
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		return b.Hops - a.Hops
	})
	return Partial{Kind: KindReach, Anchor: st.Anchor, Frontier: boundary, NoAnchor: noAnchor, Visited: visited}, units, nil
}
