package mquery

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/query"
)

// LabelResolver maps a label string to the dataset's interned id. Labels
// are resolved once at plan time so subtasks carry integer constraints —
// the networked processors hold no label table.
type LabelResolver func(label string) (graph.Label, bool)

// Plan is a decomposed multi-anchor query: the first wave of subtasks plus
// everything the Merger needs to assemble the exact answer.
type Plan struct {
	Kind     Kind
	Subtasks []Subtask

	qtype  query.Type
	pat    *query.Pattern
	target graph.NodeID
	hops   int
	budget int
}

// NewPlan decomposes q into per-anchor subtasks. The resolver may be nil
// when the query carries no label constraints; a labelled pattern with a
// nil resolver fails with query.ErrBadQuery (the caller has no label
// table). A label the dataset does not intern yields a valid empty plan:
// zero subtasks, zero matches — exactly the oracle's answer.
func NewPlan(q query.Query, resolve LabelResolver) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	switch q.Type {
	case query.PatternMatch:
		return planPattern(q, resolve)
	case query.BoundedReach:
		return planReach(q), nil
	case query.KNearest:
		return planKNN(q), nil
	}
	return nil, fmt.Errorf("%w: %v is not a multi-anchor query", query.ErrBadQuery, q.Type)
}

func planPattern(q query.Query, resolve LabelResolver) (*Plan, error) {
	p := q.Pattern
	pl := &Plan{Kind: KindPattern, qtype: q.Type, pat: p}

	// Resolve label constraints once. Unknown label → empty plan (0 matches).
	nodeLab := make([]int32, len(p.Nodes))
	for i, n := range p.Nodes {
		nodeLab[i] = -1
		if n.Label == "" {
			continue
		}
		if resolve == nil {
			return nil, fmt.Errorf("%w: labelled pattern needs the dataset's label table", query.ErrBadQuery)
		}
		l, ok := resolve(n.Label)
		if !ok {
			return pl, nil
		}
		nodeLab[i] = int32(l)
	}
	edgeLab := make([]int32, len(p.Edges))
	for i, e := range p.Edges {
		edgeLab[i] = -1
		if e.Label == "" {
			continue
		}
		if resolve == nil {
			return nil, fmt.Errorf("%w: labelled pattern needs the dataset's label table", query.ErrBadQuery)
		}
		l, ok := resolve(e.Label)
		if !ok {
			return pl, nil
		}
		edgeLab[i] = int32(l)
	}

	// Assign every pattern edge to its nearest anchored variable (ties to
	// the lowest variable index): the subtask anchored there can see both
	// endpoints' images within the smallest candidate ball.
	anchors := p.AnchorVars()
	dists := make([][]int, len(anchors))
	for k, av := range anchors {
		dists[k] = p.Distances(av)
	}
	type owned struct {
		radius int
		edges  []EdgeTask
	}
	own := make([]owned, len(anchors))
	for ei, e := range p.Edges {
		best, bestCost := 0, -1
		for k := range anchors {
			cost := dists[k][e.From]
			if c := dists[k][e.To]; c > cost {
				cost = c
			}
			if bestCost < 0 || cost < bestCost {
				best, bestCost = k, cost
			}
		}
		o := &own[best]
		if bestCost > o.radius {
			o.radius = bestCost
		}
		o.edges = append(o.edges, EdgeTask{
			Edge:       ei,
			FromLabel:  nodeLab[e.From],
			ToLabel:    nodeLab[e.To],
			EdgeLabel:  edgeLab[ei],
			FromAnchor: p.Nodes[e.From].Anchor,
			ToAnchor:   p.Nodes[e.To].Anchor,
		})
	}
	for k, o := range own {
		if len(o.edges) == 0 {
			continue
		}
		pl.Subtasks = append(pl.Subtasks, Subtask{
			Kind:   KindPattern,
			Anchor: p.Nodes[anchors[k]].Anchor,
			Radius: o.radius,
			Edges:  o.edges,
		})
	}
	return pl, nil
}

// planKNN emits the single candidate-generation subtask of a KNearest
// query: materialise the Hops-bounded undirected ball around the query
// node. The exact re-rank (embedding distances, tie-break by id, first K)
// happens at the coordinator — see Merger.Candidates — because only the
// coordinator holds the embedding.
func planKNN(q query.Query) *Plan {
	return &Plan{
		Kind:  KindKNN,
		qtype: q.Type,
		hops:  q.Hops,
		Subtasks: []Subtask{{
			Kind:   KindKNN,
			Anchor: q.Node,
			Radius: q.Hops,
		}},
	}
}

func planReach(q query.Query) *Plan {
	pl := &Plan{
		Kind:   KindReach,
		qtype:  q.Type,
		target: q.Target,
		hops:   q.Hops,
		budget: q.VisitBudget,
	}
	seen := make(map[graph.NodeID]bool, len(q.Anchors))
	for _, a := range q.Anchors {
		if seen[a] {
			continue
		}
		seen[a] = true
		pl.Subtasks = append(pl.Subtasks, Subtask{
			Kind:   KindReach,
			Anchor: a,
			Target: q.Target,
			Hops:   q.Hops,
			Budget: q.VisitBudget,
		})
	}
	return pl
}
