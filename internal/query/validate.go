package query

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Typed errors shared by every transport. Both the virtual-time client and
// the networked deployment classify failures into these sentinels (the rpc
// layer carries them across the wire as codes), so downstream code can use
// errors.Is regardless of where execution landed.
var (
	// ErrBadQuery marks a query that fails Validate: it is rejected before
	// any execution happens.
	ErrBadQuery = errors.New("bad query")
	// ErrUnknownNode marks a query whose Node has no record in the system
	// (never added, or removed).
	ErrUnknownNode = errors.New("unknown node")
	// ErrUnavailable marks a transport failure: the client is closed, a
	// daemon is unreachable, or a connection broke mid-call.
	ErrUnavailable = errors.New("service unavailable")
	// ErrConflict marks a mutation the graph's current state rejects:
	// removing an edge that does not exist, or adding an edge whose
	// endpoint was never created. The graph is unchanged; the caller's
	// picture of the graph was stale.
	ErrConflict = errors.New("mutation conflict")
)

// Validate checks the query's shape without consulting a graph. Every
// transport runs it before executing, so a malformed query fails with the
// same ErrBadQuery-wrapped error whether it was submitted to the
// virtual-time engine or over TCP.
//
// A Reachability query with a zero Target on a nonzero Node is treated as
// having forgotten its Target: the zero value of the field almost always
// means the caller never set it. (Hotspot never generates that pattern.)
func (q Query) Validate() error {
	switch q.Type {
	case NeighborAgg, RandomWalk, Reachability, PatternMatch, BoundedReach, KNearest:
	default:
		return fmt.Errorf("%w: unknown query type %v", ErrBadQuery, q.Type)
	}
	if q.Hops < 0 {
		return fmt.Errorf("%w: negative hops %d", ErrBadQuery, q.Hops)
	}
	switch q.Dir {
	case graph.Out, graph.In, graph.Both:
	default:
		return fmt.Errorf("%w: unknown direction %v", ErrBadQuery, q.Dir)
	}
	switch q.Type {
	case RandomWalk:
		if q.RestartProb < 0 || q.RestartProb > 1 {
			return fmt.Errorf("%w: restart probability %v outside [0,1]", ErrBadQuery, q.RestartProb)
		}
	case Reachability:
		if q.Target == 0 && q.Node != 0 {
			return fmt.Errorf("%w: reachability query missing Target", ErrBadQuery)
		}
	case PatternMatch:
		if q.Pattern == nil {
			return fmt.Errorf("%w: pattern-match query missing Pattern", ErrBadQuery)
		}
		if err := q.Pattern.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
	case BoundedReach:
		if len(q.Anchors) == 0 {
			return fmt.Errorf("%w: bounded-reach query missing Anchors", ErrBadQuery)
		}
		if len(q.Anchors) > MaxAnchors {
			return fmt.Errorf("%w: %d anchors exceed the limit of %d", ErrBadQuery, len(q.Anchors), MaxAnchors)
		}
		for _, a := range q.Anchors {
			if a == 0 {
				return fmt.Errorf("%w: bounded-reach query carries a zero anchor", ErrBadQuery)
			}
		}
		if q.Target == 0 {
			return fmt.Errorf("%w: bounded-reach query missing Target", ErrBadQuery)
		}
		if q.VisitBudget < 1 {
			return fmt.Errorf("%w: bounded-reach visit budget %d < 1", ErrBadQuery, q.VisitBudget)
		}
	case KNearest:
		if q.K < 1 || q.K > MaxKNearest {
			return fmt.Errorf("%w: k-nearest K %d outside [1,%d]", ErrBadQuery, q.K, MaxKNearest)
		}
		if q.Hops < 1 {
			return fmt.Errorf("%w: k-nearest query needs Hops >= 1, got %d", ErrBadQuery, q.Hops)
		}
	}
	return nil
}

// Reads returns q with every field its kind never reads set to zero: the
// query a processor or router needs, and the one the wire carries. Type,
// Node, Hops and Dir stay for every kind (Validate checks Hops and Dir of
// all of them), and so do ID and Hotspot, which routing strategies read.
// Then each kind keeps its own: NeighborAgg its CountLabel, RandomWalk its
// RestartProb and Seed, Reachability its Target, PatternMatch its Pattern,
// BoundedReach its Target, Anchors and VisitBudget, and KNearest its K. A
// kind Validate does not know keeps everything. Answer, AnswerKNN and
// Validate give q and q.Reads() the same verdict.
func (q Query) Reads() Query {
	p := Query{ID: q.ID, Type: q.Type, Node: q.Node, Hops: q.Hops, Dir: q.Dir, Hotspot: q.Hotspot}
	switch q.Type {
	case NeighborAgg:
		p.CountLabel = q.CountLabel
	case RandomWalk:
		p.RestartProb, p.Seed = q.RestartProb, q.Seed
	case Reachability:
		p.Target = q.Target
	case PatternMatch:
		p.Pattern = q.Pattern
	case BoundedReach:
		p.Target, p.Anchors, p.VisitBudget = q.Target, q.Anchors, q.VisitBudget
	case KNearest:
		p.K = q.K
	default:
		return q
	}
	return p
}
