package query

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
	"repro/internal/wire"
)

// Pattern size bounds. A pattern is a small template by construction — the
// distributed executor materialises a radius-R ball around every anchor, so
// the bounds keep a single subtask's working set comparable to one h-hop
// traversal.
const (
	// MaxPatternNodes bounds the template's variable count.
	MaxPatternNodes = 8
	// MaxPatternEdges bounds the template's edge count.
	MaxPatternEdges = 16
	// MaxAnchors bounds a BoundedReach query's source set (and with it the
	// per-query subtask fan-out).
	MaxAnchors = 16
)

// PatternNode is one variable of a pattern template. A nonzero Anchor pins
// the variable to that concrete graph node (node 0 never anchors, matching
// the Target==0-means-unset convention); Label, when non-empty, requires
// the matched node to carry it.
type PatternNode struct {
	Label  string
	Anchor graph.NodeID
}

// PatternEdge is one directed edge of the template: the match must contain
// a real graph edge f(From)→f(To), carrying Label when it is non-empty.
// From and To index Pattern.Nodes.
type PatternEdge struct {
	From  int
	To    int
	Label string
}

// Pattern is the subgraph template of a PatternMatch query. Matching is
// homomorphism counting: an assignment of graph nodes to variables such
// that every anchored variable maps to its anchor, every labelled variable
// maps to a node with that label, and every template edge maps to a real
// edge (with its label, when required). Distinct variables may map to the
// same graph node.
type Pattern struct {
	Nodes []PatternNode
	Edges []PatternEdge
}

// Validate checks the template's shape: at least one edge, no self-loops,
// endpoints in range, at least one anchored variable (the distributed
// planner expands from anchors), and connectivity (a disconnected pattern
// would multiply unrelated match counts — almost certainly a caller bug,
// and it would defeat anchored expansion).
func (p *Pattern) Validate() error {
	if len(p.Nodes) == 0 || len(p.Nodes) > MaxPatternNodes {
		return fmt.Errorf("pattern has %d nodes, want 1..%d", len(p.Nodes), MaxPatternNodes)
	}
	if len(p.Edges) == 0 || len(p.Edges) > MaxPatternEdges {
		return fmt.Errorf("pattern has %d edges, want 1..%d", len(p.Edges), MaxPatternEdges)
	}
	anchored := false
	for _, n := range p.Nodes {
		if n.Anchor != 0 {
			anchored = true
		}
	}
	if !anchored {
		return fmt.Errorf("pattern has no anchored variable")
	}
	for i, e := range p.Edges {
		if e.From < 0 || e.From >= len(p.Nodes) || e.To < 0 || e.To >= len(p.Nodes) {
			return fmt.Errorf("pattern edge %d endpoints (%d,%d) out of range", i, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("pattern edge %d is a self-loop on variable %d", i, e.From)
		}
	}
	if bad := p.disconnectedVar(); bad >= 0 {
		return fmt.Errorf("pattern variable %d is disconnected from the rest of the template", bad)
	}
	return nil
}

// adjacency builds the undirected variable adjacency of the template.
func (p *Pattern) adjacency() [][]int {
	adj := make([][]int, len(p.Nodes))
	for _, e := range p.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	return adj
}

// disconnectedVar returns a variable unreachable (undirected) from variable
// 0, or -1 when the template is connected.
func (p *Pattern) disconnectedVar() int {
	adj := p.adjacency()
	seen := make([]bool, len(p.Nodes))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return v
		}
	}
	return -1
}

// Distances returns the undirected hop distance from variable src to every
// variable of the template (-1 for unreachable; a validated pattern has
// none). The planner uses it to size each anchor's expansion radius.
func (p *Pattern) Distances(src int) []int {
	d := make([]int, len(p.Nodes))
	for i := range d {
		d[i] = -1
	}
	adj := p.adjacency()
	d[src] = 0
	frontier := []int{src}
	for len(frontier) > 0 {
		var next []int
		for _, u := range frontier {
			for _, v := range adj[u] {
				if d[v] < 0 {
					d[v] = d[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return d
}

// AnchorVars returns the indices of the anchored variables, ascending.
func (p *Pattern) AnchorVars() []int {
	var out []int
	for i, n := range p.Nodes {
		if n.Anchor != 0 {
			out = append(out, i)
		}
	}
	return out
}

// AnchorNodes returns the concrete graph nodes the pattern is anchored at
// (with duplicates preserved, aligned with AnchorVars).
func (p *Pattern) AnchorNodes() []graph.NodeID {
	var out []graph.NodeID
	for _, n := range p.Nodes {
		if n.Anchor != 0 {
			out = append(out, n.Anchor)
		}
	}
	return out
}

// JoinOrder returns the template's edges ordered so that, processing them
// in sequence with the anchored variables pre-bound, every edge has at
// least one already-bound endpoint. Both the oracle and the distributed
// join walk edges in this order, so a candidate binding always extends an
// existing partial assignment. Valid only for validated patterns.
func (p *Pattern) JoinOrder() []int {
	bound := make([]bool, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.Anchor != 0 {
			bound[i] = true
		}
	}
	used := make([]bool, len(p.Edges))
	order := make([]int, 0, len(p.Edges))
	for len(order) < len(p.Edges) {
		progressed := false
		for i, e := range p.Edges {
			if used[i] || (!bound[e.From] && !bound[e.To]) {
				continue
			}
			used[i] = true
			bound[e.From], bound[e.To] = true, true
			order = append(order, i)
			progressed = true
		}
		if !progressed {
			// Disconnected from every anchor: Validate rejects this; bind
			// arbitrarily so the order is still total.
			for i := range p.Edges {
				if !used[i] {
					used[i] = true
					bound[p.Edges[i].From], bound[p.Edges[i].To] = true, true
					order = append(order, i)
					break
				}
			}
		}
	}
	return order
}

// matchCount is the PatternMatch oracle: backtracking homomorphism counting
// directly on the in-memory graph, anchored variables first.
func (p *Pattern) matchCount(g *graph.Graph) int {
	// Resolve label constraints against the graph's intern table. A label
	// nothing in the dataset carries cannot be matched.
	nodeLab := make([]graph.Label, len(p.Nodes))
	nodeAny := make([]bool, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.Label == "" {
			nodeAny[i] = true
			continue
		}
		l, ok := g.LabelID(n.Label)
		if !ok {
			return 0
		}
		nodeLab[i] = l
	}
	edgeLab := make([]graph.Label, len(p.Edges))
	edgeAny := make([]bool, len(p.Edges))
	for i, e := range p.Edges {
		if e.Label == "" {
			edgeAny[i] = true
			continue
		}
		l, ok := g.LabelID(e.Label)
		if !ok {
			return 0
		}
		edgeLab[i] = l
	}

	varOK := func(v int, u graph.NodeID) bool {
		return nodeAny[v] || g.NodeLabelID(u) == nodeLab[v]
	}

	bind := make([]graph.NodeID, len(p.Nodes))
	isBound := make([]bool, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.Anchor == 0 {
			continue
		}
		if !g.Exists(n.Anchor) || !varOK(i, n.Anchor) {
			return 0
		}
		bind[i] = n.Anchor
		isBound[i] = true
	}

	order := p.JoinOrder()
	var count func(k int) int
	count = func(k int) int {
		if k == len(order) {
			return 1
		}
		ei := order[k]
		e := p.Edges[ei]
		lab, any := edgeLab[ei], edgeAny[ei]
		switch {
		case isBound[e.From] && isBound[e.To]:
			for _, ge := range g.OutEdges(bind[e.From]) {
				if ge.To == bind[e.To] && (any || ge.Label == lab) {
					return count(k + 1)
				}
			}
			return 0
		case isBound[e.From]:
			// Extend over distinct out-neighbours (parallel edges with the
			// same endpoints and label never exist in the graph, but two
			// labels between one pair do — dedup so a binding counts once).
			total := 0
			var prev graph.NodeID
			first := true
			for _, ge := range graph.SortedEdges(g.OutEdges(bind[e.From])) {
				if !any && ge.Label != lab {
					continue
				}
				if !first && ge.To == prev {
					continue
				}
				first, prev = false, ge.To
				if !varOK(e.To, ge.To) {
					continue
				}
				bind[e.To], isBound[e.To] = ge.To, true
				total += count(k + 1)
				isBound[e.To] = false
			}
			return total
		default: // isBound[e.To]
			total := 0
			var prev graph.NodeID
			first := true
			for _, ge := range graph.SortedEdges(g.InEdges(bind[e.To])) {
				if !any && ge.Label != lab {
					continue
				}
				if !first && ge.To == prev {
					continue
				}
				first, prev = false, ge.To
				if !varOK(e.From, ge.To) {
					continue
				}
				bind[e.From], isBound[e.From] = ge.To, true
				total += count(k + 1)
				isBound[e.From] = false
			}
			return total
		}
	}
	return count(0)
}

// AppendBinary appends the pattern's wire form — a compact varint stream —
// to buf and returns the extended slice: the allocation-free entry point the
// binary rpc framing encodes through.
func (p Pattern) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Nodes)))
	for _, n := range p.Nodes {
		buf = wire.AppendStr(buf, n.Label)
		buf = binary.AppendUvarint(buf, uint64(n.Anchor))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Edges)))
	for _, e := range p.Edges {
		buf = binary.AppendUvarint(buf, uint64(e.From))
		buf = binary.AppendUvarint(buf, uint64(e.To))
		buf = wire.AppendStr(buf, e.Label)
	}
	return buf
}

// UnmarshalBinary decodes AppendBinary's form, bounds-checking every
// count so corrupt input fails instead of panicking or over-allocating.
func (p *Pattern) UnmarshalBinary(data []byte) error {
	d := wire.NewReader(data)
	nNodes := d.Count(MaxPatternNodes)
	nodes := make([]PatternNode, 0, nNodes)
	for i := 0; i < nNodes; i++ {
		lab := d.Str(maxWireString)
		anchor := graph.NodeID(d.U32())
		nodes = append(nodes, PatternNode{Label: lab, Anchor: anchor})
	}
	nEdges := d.Count(MaxPatternEdges)
	edges := make([]PatternEdge, 0, nEdges)
	for i := 0; i < nEdges; i++ {
		from := int(d.U32())
		to := int(d.U32())
		lab := d.Str(maxWireString)
		edges = append(edges, PatternEdge{From: from, To: to, Label: lab})
	}
	if err := d.Finish("pattern"); err != nil {
		return err
	}
	p.Nodes, p.Edges = nodes, edges
	return nil
}

// maxWireString bounds decoded label lengths (labels are short tokens).
const maxWireString = 1 << 10
