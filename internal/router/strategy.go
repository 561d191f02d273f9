// Package router implements the query router of Section 3: the component
// that, given a stream of online queries, decides which query processor
// each one goes to.
//
// Four strategies are provided. NextReady and Hash are the paper's
// baselines (Section 3.3); Landmark and Embed are the smart strategies
// (Section 3.4) that exploit topology-aware locality so successive queries
// on nearby nodes reach the same processor's cache. Both smart strategies
// blend their distance signal with the processor's current load through
// the load-balanced distance d_LB(u,p) = d(u,p) + load/loadFactor
// (Equations 3 and 7).
package router

import (
	"fmt"
	"math"

	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/query"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// DistanceAware is implemented by strategies that can score how close a
// query is to a processor's (inferred) cache contents. The router uses it
// to make query stealing locality-aware: an idle processor steals the
// pending query nearest to itself, so load balancing "impacts the nearby
// query nodes in the same way" (Section 3.4.1).
type DistanceAware interface {
	DistanceTo(q query.Query, proc int) float64
}

// TopologyAware is implemented by strategies that adapt to membership
// changes in the processing tier. The routers call SetTopology under their
// own lock — once at construction and again whenever a newer epoch is
// applied — so a strategy can re-derive its internal assignments for the
// new active set (the landmark strategy recomputes landmark→processor
// ownership, the embedding strategy provisions means for joined members,
// the stable-hash strategy re-ranks its rendezvous set). Strategies that
// do not implement it keep seeing the full slot-indexed loads slice and
// rely on the router's diversion to avoid departed members.
type TopologyAware interface {
	SetTopology(v topology.View)
}

// slotsEqual reports whether two ascending slot lists are identical.
func slotsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Strategy decides the destination processor for each query.
//
// Pick receives the per-processor loads (Router.Load, queued plus
// outstanding work on every engine — "the router uses the number of queries
// in the queue corresponding to a processor as the measure of its load").
// Observe is invoked after the router commits the decision, letting stateful
// strategies (Embed's moving average) learn the dispatch history.
// DecisionUnits reports the per-query decision cost in abstract units (P
// for landmark, P·D for embed) that the engine converts to routing time.
type Strategy interface {
	Name() string
	Pick(q query.Query, loads []int) int
	Observe(q query.Query, proc int)
	DecisionUnits() int
}

// AnchorRouter is the multi-anchor routing hook: a strategy that wants to
// place a query's per-anchor subtasks jointly (say, packing anchors that
// share a partition) implements it. Strategies that do not — all five
// built-ins — are adapted by PickAnchors, which routes each anchor as if it
// were a single-seed query on that node. Implementations must return one
// in-range processor per anchor; they must not Observe (the caller observes
// each subtask's final, post-diversion destination).
type AnchorRouter interface {
	PickAnchors(q query.Query, anchors []graph.NodeID, loads []int) []int
}

// PickAnchors routes a multi-anchor query's anchors through s: via its
// AnchorRouter hook when it has one, else per-anchor — each anchor is
// presented to Pick as the query's Node, the decision every strategy
// already knows how to make. loads is mutated as picks commit (each chosen
// processor's load rises by one) so load-blending strategies see the
// query's own fan-out, exactly as they would see a burst of single-seed
// queries.
func PickAnchors(s Strategy, q query.Query, anchors []graph.NodeID, loads []int) []int {
	if ar, ok := s.(AnchorRouter); ok {
		return ar.PickAnchors(q, anchors, loads)
	}
	picks := make([]int, len(anchors))
	for i, a := range anchors {
		q2 := q
		q2.Node = a
		p := s.Pick(q2, loads)
		picks[i] = p
		if p >= 0 && p < len(loads) {
			loads[p]++
		}
	}
	return picks
}

// NextReady dispatches to the least-loaded processor, breaking ties
// round-robin. "The router decides where to send a query by choosing the
// next processor that has finished computing and is ready for a new
// request." It is oblivious to the query's node, so it cannot create cache
// locality.
type NextReady struct {
	rr int
}

// NewNextReady returns the next-ready baseline strategy.
func NewNextReady() *NextReady { return &NextReady{} }

// Name implements Strategy.
func (s *NextReady) Name() string { return "nextready" }

// Pick implements Strategy.
func (s *NextReady) Pick(q query.Query, loads []int) int {
	best, bestLoad := -1, math.MaxInt
	n := len(loads)
	for i := 0; i < n; i++ {
		p := (s.rr + i) % n
		if loads[p] < bestLoad {
			best, bestLoad = p, loads[p]
		}
	}
	s.rr = (best + 1) % n
	return best
}

// Observe implements Strategy.
func (s *NextReady) Observe(query.Query, int) {}

// DecisionUnits implements Strategy.
func (s *NextReady) DecisionUnits() int { return 1 }

// Hash dispatches by modulo-hashing the query node id (Equation 1):
// Target-Processor-Id = Query-Node-Id MOD Number-Of-Processors.
// Repeated queries on the same node reach the same processor (so repeats
// hit the cache), but neighbouring nodes scatter arbitrarily.
type Hash struct{}

// NewHash returns the hash baseline strategy.
func NewHash() *Hash { return &Hash{} }

// Name implements Strategy.
func (s *Hash) Name() string { return "hash" }

// Pick implements Strategy.
func (s *Hash) Pick(q query.Query, loads []int) int {
	return int(uint64(q.Node) % uint64(len(loads)))
}

// Observe implements Strategy.
func (s *Hash) Observe(query.Query, int) {}

// DecisionUnits implements Strategy.
func (s *Hash) DecisionUnits() int { return 1 }

// StableHash dispatches by rendezvous hashing the query node over the
// active processor set. Like modulo hashing it sends repeats of the same
// node to the same processor, but unlike Eq 1 it remaps only ~k/N of the
// node space when k processors join or leave — the elastic-topology
// analogue of the hash baseline, where a scale-out keeps almost every
// processor's cache intact.
type StableHash struct {
	active []int
}

// NewStableHash builds the stable-remap hash strategy over procs
// processors (slots 0..procs-1 until a topology view says otherwise).
func NewStableHash(procs int) *StableHash {
	s := &StableHash{active: make([]int, procs)}
	for i := range s.active {
		s.active[i] = i
	}
	return s
}

// Name implements Strategy.
func (s *StableHash) Name() string { return "stablehash" }

// Pick implements Strategy.
func (s *StableHash) Pick(q query.Query, loads []int) int {
	if p := topology.Rendezvous(uint64(q.Node), s.active); p >= 0 {
		return p
	}
	return 0
}

// Observe implements Strategy.
func (s *StableHash) Observe(query.Query, int) {}

// DecisionUnits implements Strategy: one score per active member.
func (s *StableHash) DecisionUnits() int {
	if len(s.active) == 0 {
		return 1
	}
	return len(s.active)
}

// SetTopology implements TopologyAware. The rendezvous set keeps Down
// members — their keys divert while the member is out and return on
// revive, preserving its cache — and drops only Left ones, which is what
// permanently remaps their ~1/N share of the key space.
func (s *StableHash) SetTopology(v topology.View) { s.active = v.RoutableSlots() }

// Landmark routes to the processor owning the landmark region the query
// node falls in, with load blended in via Equation 3. Routing is O(P) per
// query against the precomputed d(u,p) table.
//
// The strategy is topology-aware: on an epoch change it re-runs
// landmark.Assign over the new active member count, so landmark regions
// are re-owned across the current tier instead of orphaned with departed
// processors.
type Landmark struct {
	idx        *landmark.Index
	assign     *landmark.Assignment
	slots      []int // slots[v] is the member slot virtual processor v maps to
	loadFactor float64
}

// NewLandmark builds the landmark strategy from the landmark index and its
// node→processor distance assignment. loadFactor <= 0 disables the load
// term (pure locality). The index is retained so SetTopology can recompute
// the landmark→processor assignment for new active sets.
func NewLandmark(idx *landmark.Index, assign *landmark.Assignment, loadFactor float64) *Landmark {
	return &Landmark{idx: idx, assign: assign, slots: identitySlots(assign.Procs()), loadFactor: loadFactor}
}

// tableBytes reports the memory of the precomputed tables a router holding
// strategy s and the coordinate table emb (nil when it holds none) routes
// by: the landmark index and d(u,p) table of a Landmark strategy, and the
// coordinates — emb, which under embed routing is the strategy's own table.
// This is Table 3's preprocessing storage; Router.Snapshot reports it as
// RoutingTableBytes on both transports.
func tableBytes(s Strategy, emb *embed.Embedding) int64 {
	var n int64
	switch s := s.(type) {
	case *Landmark:
		n = s.assign.StorageBytes() + s.idx.StorageBytes()
	case *Embed:
		emb = s.emb
	}
	if emb != nil {
		n += emb.StorageBytes()
	}
	return n
}

func identitySlots(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Name implements Strategy.
func (s *Landmark) Name() string { return "landmark" }

// Pick implements Strategy.
func (s *Landmark) Pick(q query.Query, loads []int) int {
	best, bestD := -1, math.Inf(1)
	for v, slot := range s.slots {
		d := float64(s.assign.DistToProc(q.Node, v))
		if d == float64(landmark.Inf) {
			// Unknown node or landmark-less processor: a large but finite
			// distance, so the load term can still steer queries here.
			d = 1e6
		}
		if s.loadFactor > 0 && slot < len(loads) {
			d += float64(loads[slot]) / s.loadFactor
		}
		if d < bestD {
			best, bestD = slot, d
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// Observe implements Strategy.
func (s *Landmark) Observe(query.Query, int) {}

// DecisionUnits implements Strategy.
func (s *Landmark) DecisionUnits() int { return s.assign.Procs() }

// SetTopology implements TopologyAware: the landmark→processor assignment (and with it the O(n·P) distance table) is
// recomputed for the new membership, exactly as deployment-time
// preprocessing would have produced for that member count. Down members
// keep their landmark regions — their queries divert while they are out
// and come back on revive — so only joins and leaves trigger the
// recompute. Note the recompute is O(nodes · members) and runs inside
// whatever lock the router applies views under; membership changes are
// rare control-plane events, but on very large graphs the caller pays
// that cost at the transition.
func (s *Landmark) SetTopology(v topology.View) {
	members := v.RoutableSlots()
	if len(members) == 0 || slotsEqual(members, s.slots) {
		return
	}
	s.assign = landmark.Assign(s.idx, len(members))
	s.slots = members
}

// DistanceTo implements DistanceAware: the raw d(u,p) of Section 3.4.1.
func (s *Landmark) DistanceTo(q query.Query, proc int) float64 {
	for v, slot := range s.slots {
		if slot != proc {
			continue
		}
		d := float64(s.assign.DistToProc(q.Node, v))
		if d == float64(landmark.Inf) {
			return 1e6
		}
		return d
	}
	return 1e6
}

// Embed routes using the graph embedding: each processor carries an
// exponential moving average of the coordinates of the queries it
// received (Equation 5); a query goes to the processor whose mean is
// closest to the query node's coordinates (Equation 6), blended with load
// via Equation 7. Routing is O(P·D) per query.
//
// The strategy is topology-aware: joined members get a fresh seeded mean
// (derived from the slot id, so the value is independent of join order and
// identical on both transports), surviving members keep their learned means
// across the epoch change, and departed members simply drop out of the
// candidate set.
type Embed struct {
	emb        *embed.Embedding
	means      [][]float64 // slot-indexed; nil for slots never active
	active     []int
	seed       int64
	alpha      float64
	loadFactor float64
}

// NewEmbed builds the embed strategy for procs processors. alpha is the
// smoothing parameter of Equation 5; the initial per-processor means are
// "assigned uniformly at random" (seeded for determinism) among the embedded
// nodes' rows (seedMean).
func NewEmbed(emb *embed.Embedding, procs int, alpha, loadFactor float64, seed int64) (*Embed, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("router: embed strategy needs procs > 0, got %d", procs)
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("router: alpha %v outside [0,1]", alpha)
	}
	s := &Embed{emb: emb, alpha: alpha, loadFactor: loadFactor, seed: seed}
	s.means = make([][]float64, procs)
	s.active = identitySlots(procs)
	for p := range s.means {
		s.means[p] = s.seedMean(p)
	}
	return s, nil
}

// SetTopology implements TopologyAware: provision means for joined slots,
// keep the learned means of surviving ones, and restrict routing to the
// current membership. Down members stay candidates — their queries divert
// while they are out (§3.4.1) and their learned mean survives for the
// revive — only Left members drop out of the set.
func (s *Embed) SetTopology(v topology.View) {
	active := v.RoutableSlots()
	if slotsEqual(active, s.active) {
		return
	}
	for _, slot := range active {
		for len(s.means) <= slot {
			s.means = append(s.means, nil)
		}
		if s.means[slot] == nil {
			s.means[slot] = s.seedMean(slot)
		}
	}
	s.active = active
}

// seedMean is slot's first mean: the row of an embedded node, the first at
// or after an id drawn from the slot's own stream (so the value does not
// depend on join order). A mean has to start where nodes are. A point drawn
// from the coordinates' bounding box is, in eight dimensions, almost surely
// in empty space, and with equal loads a mean that starts farther from every
// node than its peers never wins a query, never moves, and its processor
// starves. The origin when nothing is embedded.
func (s *Embed) seedMean(slot int) []float64 {
	m := make([]float64, s.emb.D)
	n := s.emb.NumNodes()
	if n == 0 {
		return m
	}
	rng := xrand.New(s.seed ^ int64((uint64(slot)+1)*0x9e3779b97f4a7c15))
	for i, start := 0, rng.Intn(n); i < n; i++ {
		if row := s.emb.Coords(graph.NodeID((start + i) % n)); !math.IsNaN(float64(row[0])) {
			for j, v := range row {
				m[j] = float64(v)
			}
			break
		}
	}
	return m
}

// Name implements Strategy.
func (s *Embed) Name() string { return "embed" }

// Pick implements Strategy.
func (s *Embed) Pick(q query.Query, loads []int) int {
	c := s.emb.Coords(q.Node)
	if c == nil || math.IsNaN(float64(c[0])) {
		// Unembedded node (e.g. added after preprocessing, not yet
		// incorporated): fall back to least-loaded active member.
		best, bestLoad := -1, math.MaxInt
		for _, slot := range s.active {
			if slot < len(loads) && loads[slot] < bestLoad {
				best, bestLoad = slot, loads[slot]
			}
		}
		if best < 0 {
			return 0
		}
		return best
	}
	best, bestD := -1, math.Inf(1)
	for _, slot := range s.active {
		d := distTo(s.means[slot], c)
		if s.loadFactor > 0 && slot < len(loads) {
			d += float64(loads[slot]) / s.loadFactor
		}
		if d < bestD {
			best, bestD = slot, d
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// Observe implements Strategy: Equation 5, mean ← α·mean + (1−α)·coords(v).
func (s *Embed) Observe(q query.Query, proc int) {
	c := s.emb.Coords(q.Node)
	if c == nil || math.IsNaN(float64(c[0])) {
		return
	}
	if proc < 0 || proc >= len(s.means) || s.means[proc] == nil {
		return
	}
	m := s.means[proc]
	for j := range m {
		m[j] = s.alpha*m[j] + (1-s.alpha)*float64(c[j])
	}
}

// DecisionUnits implements Strategy.
func (s *Embed) DecisionUnits() int {
	if len(s.active) == 0 {
		return s.emb.D
	}
	return len(s.active) * s.emb.D
}

// DistanceTo implements DistanceAware: the raw d1(u,p) of Equation 6.
func (s *Embed) DistanceTo(q query.Query, proc int) float64 {
	c := s.emb.Coords(q.Node)
	if c == nil || math.IsNaN(float64(c[0])) {
		return 1e6
	}
	if proc < 0 || proc >= len(s.means) || s.means[proc] == nil {
		return 1e6
	}
	return distTo(s.means[proc], c)
}

// Mean exposes processor p's current EMA coordinates (for tests).
func (s *Embed) Mean(p int) []float64 { return s.means[p] }

func distTo(mean []float64, c []float32) float64 {
	var sum float64
	for j := range mean {
		d := mean[j] - float64(c[j])
		sum += d * d
	}
	return math.Sqrt(sum)
}
