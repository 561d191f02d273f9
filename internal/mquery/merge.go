package mquery

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/query"
)

// Merger composes partial results into the exact answer. Feed every
// subtask's Partial to Absorb; for KindReach, drain NextWave and execute
// its relaunched subtasks until it returns none (or Found reports early
// success); then Result yields the oracle-identical answer.
type Merger struct {
	plan *Plan

	// KindPattern: union of the extracted relations, per pattern edge.
	rels []map[Pair]struct{}

	// KindReach: partial-evaluation state. done[n] is the largest hop
	// allowance already launched from n (dominance: a BFS with more hops
	// visits a superset), pend[n] the largest absorbed-but-unlaunched one.
	found bool
	done  map[graph.NodeID]int
	pend  map[graph.NodeID]int

	// KindKNN: union of the candidate balls.
	cands map[graph.NodeID]struct{}

	absorbed   int
	maxVisited int
}

// NewMerger prepares a merger for pl's partials.
func NewMerger(pl *Plan) *Merger {
	m := &Merger{plan: pl}
	switch pl.Kind {
	case KindPattern:
		m.rels = make([]map[Pair]struct{}, len(pl.pat.Edges))
		for i := range m.rels {
			m.rels[i] = make(map[Pair]struct{})
		}
	case KindReach:
		m.done = make(map[graph.NodeID]int, len(pl.Subtasks))
		m.pend = make(map[graph.NodeID]int)
		for _, st := range pl.Subtasks {
			if st.Hops > m.done[st.Anchor] {
				m.done[st.Anchor] = st.Hops
			}
		}
	case KindKNN:
		m.cands = make(map[graph.NodeID]struct{})
	}
	return m
}

// Absorb folds one partial in. It rejects a partial of the wrong kind, a
// relation for a pattern edge the plan does not have, and — the budget
// guarantee — any KindReach partial that expanded more nodes than the
// per-partition budget allows. A partial whose subtask found no record for
// one of the query's own anchors fails the query with query.ErrUnknownNode:
// every partial of either transport passes through here, so both answer an
// unknown anchor alike. (A relaunched boundary node without a record is a
// dangling edge, not an error.)
func (m *Merger) Absorb(p Partial) error {
	if p.Kind != m.plan.Kind {
		return fmt.Errorf("mquery: absorbed a kind-%d partial into a kind-%d plan", p.Kind, m.plan.Kind)
	}
	if p.NoAnchor {
		for _, st := range m.plan.Subtasks {
			if st.Anchor == p.Anchor {
				return fmt.Errorf("%w: node %d has no record in the storage tier", query.ErrUnknownNode, p.Anchor)
			}
		}
	}
	// Validate fully before committing anything, so a rejected partial
	// leaves the merger (and its stats) untouched.
	switch m.plan.Kind {
	case KindPattern:
		for _, er := range p.Rels {
			if er.Edge < 0 || er.Edge >= len(m.rels) {
				return fmt.Errorf("mquery: partial carries relation for pattern edge %d of %d", er.Edge, len(m.rels))
			}
		}
	case KindReach:
		if p.Visited > m.plan.budget {
			return fmt.Errorf("mquery: subtask from anchor %d visited %d nodes, exceeding the per-partition budget %d",
				p.Anchor, p.Visited, m.plan.budget)
		}
		if !p.Found {
			for _, b := range p.Frontier {
				if b.Hops <= 0 || b.Hops > m.plan.hops {
					return fmt.Errorf("mquery: frontier entry with hop allowance %d outside 1..%d", b.Hops, m.plan.hops)
				}
			}
		}
	}
	m.absorbed++
	if p.Visited > m.maxVisited {
		m.maxVisited = p.Visited
	}
	switch m.plan.Kind {
	case KindPattern:
		for _, er := range p.Rels {
			for _, pr := range er.Pairs {
				m.rels[er.Edge][pr] = struct{}{}
			}
		}
	case KindReach:
		if p.Found {
			m.found = true
			return nil
		}
		for _, b := range p.Frontier {
			if b.Hops > m.done[b.Node] && b.Hops > m.pend[b.Node] {
				m.pend[b.Node] = b.Hops
			}
		}
	case KindKNN:
		for _, c := range p.Candidates {
			if c == p.Anchor {
				continue // candidates exclude the query node by contract
			}
			m.cands[c] = struct{}{}
		}
	}
	return nil
}

// Candidates returns the union of the absorbed KindKNN candidate balls in
// ascending node order: the input to the coordinator's exact re-rank
// (embedding distance, ties by id, first K). Nil for other kinds.
func (m *Merger) Candidates() []graph.NodeID {
	if m.plan.Kind != KindKNN {
		return nil
	}
	out := make([]graph.NodeID, 0, len(m.cands))
	for c := range m.cands {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// Found reports early success of a KindReach plan: once any partial
// reached the target, remaining subtasks and waves are pointless and the
// transport may cancel them.
func (m *Merger) Found() bool { return m.found }

// NextWave drains the pending relaunch frontier into a new wave of
// subtasks, in ascending node order (deterministic). It returns nil when
// the search is complete — answer found, or no frontier survived the
// dominance check.
func (m *Merger) NextWave() []Subtask {
	if m.plan.Kind != KindReach || m.found || len(m.pend) == 0 {
		return nil
	}
	nodes := make([]graph.NodeID, 0, len(m.pend))
	for n := range m.pend {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	var wave []Subtask
	for _, n := range nodes {
		r := m.pend[n]
		if r <= m.done[n] {
			continue
		}
		m.done[n] = r
		wave = append(wave, Subtask{
			Kind:   KindReach,
			Anchor: n,
			Target: m.plan.target,
			Hops:   r,
			Budget: m.plan.budget,
		})
	}
	m.pend = make(map[graph.NodeID]int)
	return wave
}

// Result assembles the final answer from everything absorbed.
func (m *Merger) Result() query.Result {
	switch m.plan.Kind {
	case KindPattern:
		return query.Result{Type: m.plan.qtype, Matches: m.countPattern()}
	case KindReach:
		return query.Result{Type: m.plan.qtype, Reachable: m.found}
	case KindKNN:
		// The merger has no embedding: the coordinator ranks Candidates
		// itself (query.RankNearest) and fills Nearest/Count.
		return query.Result{Type: m.plan.qtype}
	}
	return query.Result{}
}

// Stats reports how many partials were absorbed and the largest per-subtask
// visit count seen (always within budget for KindReach — Absorb enforces it).
func (m *Merger) Stats() (absorbed, maxVisited int) {
	return m.absorbed, m.maxVisited
}

// countPattern runs the template join over the unioned relations: the same
// backtracking walk as the oracle, with relation lookups standing in for
// graph adjacency. Every pattern edge's relation is complete near its
// owning anchor (runPattern's ball argument), so the join count equals the
// oracle's homomorphism count.
func (m *Merger) countPattern() int {
	p := m.plan.pat
	byU := make([]map[graph.NodeID][]graph.NodeID, len(p.Edges))
	byV := make([]map[graph.NodeID][]graph.NodeID, len(p.Edges))
	for ei := range m.rels {
		byU[ei] = make(map[graph.NodeID][]graph.NodeID)
		byV[ei] = make(map[graph.NodeID][]graph.NodeID)
		for pr := range m.rels[ei] {
			byU[ei][pr.From] = append(byU[ei][pr.From], pr.To)
			byV[ei][pr.To] = append(byV[ei][pr.To], pr.From)
		}
	}

	bind := make([]graph.NodeID, len(p.Nodes))
	isBound := make([]bool, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.Anchor != 0 {
			bind[i] = n.Anchor
			isBound[i] = true
		}
	}

	order := p.JoinOrder()
	var count func(k int) int
	count = func(k int) int {
		if k == len(order) {
			return 1
		}
		ei := order[k]
		e := p.Edges[ei]
		switch {
		case isBound[e.From] && isBound[e.To]:
			if _, ok := m.rels[ei][Pair{From: bind[e.From], To: bind[e.To]}]; ok {
				return count(k + 1)
			}
			return 0
		case isBound[e.From]:
			total := 0
			for _, v := range byU[ei][bind[e.From]] {
				bind[e.To], isBound[e.To] = v, true
				total += count(k + 1)
				isBound[e.To] = false
			}
			return total
		default: // isBound[e.To]; JoinOrder guarantees one endpoint is bound
			total := 0
			for _, u := range byV[ei][bind[e.To]] {
				bind[e.From], isBound[e.From] = u, true
				total += count(k + 1)
				isBound[e.From] = false
			}
			return total
		}
	}
	return count(0)
}
