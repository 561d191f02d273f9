// Package graph implements the labelled, directed graph data model of
// Section 2.1 of the paper.
//
// Every node stores both its outgoing and incoming edges, because both
// directions matter for h-hop queries (the paper's example: an edge
// "founded" from Jerry Yang to Yahoo! implies the reverse relation
// "founded_by", and reachability runs a backward BFS from the target).
// Node and edge labels are interned into a compact label table.
//
// A graph a Bulk built holds only its out-view at first, with the Bulk's
// run list beside it: the first call that reads or changes the in-view
// builds that view from the runs and lets them go, so a holder that only
// ever reads outgoing edges (a hash router) never lays it out. A reader that
// needs only the in-neighbours' ids (the routing preprocessing) reads InIDs,
// a compact id-only in-adjacency built on its first call — from the runs
// while they are pending, so it never lays the in-view out either.
//
// A Graph is safe for concurrent readers, first readers of a Bulk's graph
// included; mutations require external synchronisation. Mutation methods
// (AddEdge, RemoveEdge, RemoveNode) keep the in/out adjacency views
// consistent at all times.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node. IDs are dense, starting at 0, and remain stable
// across removals (removed IDs are tombstoned, not recycled).
type NodeID uint32

// Label identifies an interned node or edge label. Label 0 is the empty
// label.
type Label uint16

// NoLabel is the zero, empty label carried by unlabelled nodes and edges.
const NoLabel Label = 0

// Edge is one adjacency entry: the far endpoint and the edge's label.
type Edge struct {
	To    NodeID
	Label Label
}

// Direction selects which adjacency a traversal follows.
type Direction int

const (
	// Out follows outgoing edges only.
	Out Direction = iota
	// In follows incoming edges only.
	In
	// Both treats the graph as bi-directed, following edges in either
	// direction. The smart routing preprocessing (Section 3.4) always uses
	// Both, matching the paper's "bi-directed version of the input graph".
	Both
)

func (d Direction) String() string {
	switch d {
	case Out:
		return "out"
	case In:
		return "in"
	case Both:
		return "both"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// ErrNoSuchNode is returned when an operation names a node that does not
// exist or has been removed.
var ErrNoSuchNode = errors.New("graph: no such node")

// Graph is a directed multigraph with interned node and edge labels.
type Graph struct {
	out       [][]Edge
	in        [][]Edge
	nodeLabel []Label
	removed   []bool
	numEdges  int
	liveNodes int
	labels    *Labels

	// The in-adjacency's two lazy forms share one guard: the in-view, in,
	// laid out from a Bulk's runs when it left them pending, and the id
	// index, inOff / inIDs (InIDs), laid out from the runs while they are
	// pending and from the in-view after.
	inMu    sync.Mutex
	inReady atomic.Bool // in is built
	idReady atomic.Bool // inOff and inIDs are built
	pending *Bulk       // what buildIn lays the in-view out from, until it has
	inOff   []uint32    // node v's in-neighbours are inIDs[inOff[v]:inOff[v+1]]
	inIDs   []NodeID
}

// inView returns the in-adjacency, built first if a Bulk left it pending.
// Every reader of g.in calls it, and every mutator (through mutating);
// InIDs guards the id index the same way.
func (g *Graph) inView() [][]Edge {
	if !g.inReady.Load() {
		g.lazily(&g.inReady, g.buildIn)
	}
	return g.in
}

// lazily runs build under the in-adjacency's guard unless ready says it has
// run, then sets ready: every first reader of either form waits for the one
// that builds it, and the two builds never overlap.
func (g *Graph) lazily(ready *atomic.Bool, build func()) {
	g.inMu.Lock()
	defer g.inMu.Unlock()
	if !ready.Load() {
		build()
		ready.Store(true)
	}
}

// mutating readies g for a change: the in-view is built, so a Bulk's runs
// are read before anything moves, and the id index is dropped, as the
// change may make it stale. Every mutator calls it before it changes
// anything.
func (g *Graph) mutating() {
	g.inView()
	if g.idReady.Load() {
		g.idReady.Store(false)
		g.inOff, g.inIDs = nil, nil
	}
}

// New returns an empty graph.
func New() *Graph {
	return NewWithCapacity(0)
}

// NewWithCapacity returns an empty graph with adjacency storage
// pre-allocated for n nodes.
func NewWithCapacity(n int) *Graph {
	g := &Graph{
		out:       make([][]Edge, 0, n),
		in:        make([][]Edge, 0, n),
		nodeLabel: make([]Label, 0, n),
		removed:   make([]bool, 0, n),
		labels:    newLabels(),
	}
	return g
}

// NumNodes returns the number of live (non-removed) nodes.
func (g *Graph) NumNodes() int { return g.liveNodes }

// MaxNodeID returns one past the largest NodeID ever allocated. Iteration
// over all nodes should run id in [0, MaxNodeID) and skip !Exists(id).
func (g *Graph) MaxNodeID() NodeID { return NodeID(len(g.out)) }

// NumEdges returns the number of live directed edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Exists reports whether id names a live node.
func (g *Graph) Exists(id NodeID) bool {
	return int(id) < len(g.out) && !g.removed[id]
}

// AddNode creates a node carrying label and returns its id.
func (g *Graph) AddNode(label string) NodeID {
	g.mutating()
	id := NodeID(len(g.out))
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.nodeLabel = append(g.nodeLabel, g.labels.Intern(label))
	g.removed = append(g.removed, false)
	g.liveNodes++
	return id
}

// AddNodes bulk-creates n unlabelled nodes and returns the first new id.
func (g *Graph) AddNodes(n int) NodeID {
	g.mutating()
	first := NodeID(len(g.out))
	g.out = append(g.out, make([][]Edge, n)...)
	g.in = append(g.in, make([][]Edge, n)...)
	g.nodeLabel = append(g.nodeLabel, make([]Label, n)...)
	g.removed = append(g.removed, make([]bool, n)...)
	g.liveNodes += n
	return first
}

// UpsertNode ensures id names a live node carrying label, growing the id
// space as needed (intermediate fresh ids stay non-existent until upserted
// themselves) and reviving a tombstoned id. It is the in-memory oracle of
// the write path's upsert (gstore.Apply edits the stored records), so it is
// idempotent like the mutation it mirrors, and reports whether a node was
// created (or revived) as opposed to relabelled in place.
func (g *Graph) UpsertNode(id NodeID, label Label) bool {
	g.mutating()
	for NodeID(len(g.out)) <= id {
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
		g.nodeLabel = append(g.nodeLabel, NoLabel)
		g.removed = append(g.removed, true)
	}
	created := g.removed[id]
	if created {
		g.removed[id] = false
		g.liveNodes++
	}
	g.nodeLabel[id] = label
	return created
}

// InternLabel interns label and returns its id — the form mutations carry
// (records and queries store interned ids, never strings).
func (g *Graph) InternLabel(label string) Label { return g.labels.Intern(label) }

// Labels returns the graph's label table itself, not a copy: a holder that
// outlives the graph (the networked router keeps the table and lets the
// graph go) resolves against and interns into the very ids the graph's
// records were encoded with, and whoever still holds the graph sees the
// labels interned through the table.
func (g *Graph) Labels() *Labels { return g.labels }

// EnsureEdge inserts the directed edge u->v carrying label unless an
// identical (u, v, label) edge already exists, and reports whether it
// inserted one. It is the in-memory oracle of the write path's add-edge:
// mirroring a Client's mutations onto a graph with it yields the adjacency
// the stored records hold, never a duplicate parallel edge.
func (g *Graph) EnsureEdge(u, v NodeID, label Label) (bool, error) {
	g.mutating()
	if !g.Exists(u) || !g.Exists(v) {
		return false, ErrNoSuchNode
	}
	for _, e := range g.out[u] {
		if e.To == v && e.Label == label {
			return false, nil
		}
	}
	g.out[u] = append(g.out[u], Edge{To: v, Label: label})
	g.in[v] = append(g.in[v], Edge{To: u, Label: label})
	g.numEdges++
	return true, nil
}

// AddEdge inserts the directed edge u->v carrying label. Parallel edges are
// permitted (the graph is a multigraph). It returns ErrNoSuchNode if either
// endpoint is missing.
func (g *Graph) AddEdge(u, v NodeID, label string) error {
	g.mutating()
	if !g.Exists(u) || !g.Exists(v) {
		return ErrNoSuchNode
	}
	l := g.labels.Intern(label)
	g.out[u] = append(g.out[u], Edge{To: v, Label: l})
	g.in[v] = append(g.in[v], Edge{To: u, Label: l})
	g.numEdges++
	return nil
}

// AddEdgeFast inserts the unlabelled directed edge u->v without validating
// the endpoints. It is the bulk-load path used by the synthetic generators;
// callers must guarantee both nodes exist.
func (g *Graph) AddEdgeFast(u, v NodeID) {
	g.mutating()
	g.out[u] = append(g.out[u], Edge{To: v})
	g.in[v] = append(g.in[v], Edge{To: u})
	g.numEdges++
}

// HasEdge reports whether at least one directed edge u->v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.Exists(u) || !g.Exists(v) {
		return false
	}
	// Scan the smaller endpoint list.
	in := g.inView()[v]
	if len(g.out[u]) <= len(in) {
		for _, e := range g.out[u] {
			if e.To == v {
				return true
			}
		}
		return false
	}
	for _, e := range in {
		if e.To == u {
			return true
		}
	}
	return false
}

// RemoveEdge deletes one directed edge u->v — the lowest-labelled edge when
// several connect u to v, the first in the (To, Label) order stored records
// keep, so the oracle drops the edge the write path drops — and reports
// whether an edge was removed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	g.mutating()
	if !g.Exists(u) || !g.Exists(v) {
		return false
	}
	i := LowestEdge(g.out[u], v)
	if i < 0 {
		return false
	}
	j := slices.Index(g.in[v], Edge{To: u, Label: g.out[u][i].Label})
	if j < 0 {
		// The in/out views must agree; a one-sided edge is a corruption bug.
		panic("graph: in/out adjacency inconsistent")
	}
	g.out[u], g.in[v] = slices.Delete(g.out[u], i, i+1), slices.Delete(g.in[v], j, j+1)
	g.numEdges--
	return true
}

// LowestEdge returns the index in es of the lowest-labelled edge pointing
// at target (the first such edge in es on ties), or -1 when none does.
func LowestEdge(es []Edge, target NodeID) int {
	at := -1
	for i, e := range es {
		if e.To == target && (at < 0 || e.Label < es[at].Label) {
			at = i
		}
	}
	return at
}

// removeFirst deletes the first entry pointing at target, preserving order
// of the remaining entries, and reports whether one was found.
func removeFirst(adj *[]Edge, target NodeID) bool {
	s := *adj
	for i, e := range s {
		if e.To == target {
			*adj = append(s[:i], s[i+1:]...)
			return true
		}
	}
	return false
}

// RemoveNode deletes a node and every edge incident on it, following the
// paper's update rule ("a node deletion is handled as deletion of the
// multiple edges incident on it"). The id is tombstoned, never reused.
func (g *Graph) RemoveNode(u NodeID) error {
	g.mutating()
	if !g.Exists(u) {
		return ErrNoSuchNode
	}
	for _, e := range g.out[u] {
		removeFirst(&g.in[e.To], u)
		g.numEdges--
	}
	for _, e := range g.in[u] {
		removeFirst(&g.out[e.To], u)
		g.numEdges--
	}
	g.out[u] = nil
	g.in[u] = nil
	g.removed[u] = true
	g.liveNodes--
	return nil
}

// Adjacency is the read side of a graph the incremental routing updates
// need: a node's outgoing and incoming edges (nil for a node that does not
// exist). *Graph is one; the virtual-time engine's mutation path hands them
// its *gstore.Tier, which reads each node's edges from its stored record.
type Adjacency interface {
	OutEdges(u NodeID) []Edge
	InEdges(u NodeID) []Edge
}

// OutEdges returns the outgoing adjacency of u. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) OutEdges(u NodeID) []Edge {
	if !g.Exists(u) {
		return nil
	}
	return g.out[u]
}

// InEdges returns the incoming adjacency of u (entries point at the edge
// sources). The returned slice is owned by the graph and must not be
// modified.
func (g *Graph) InEdges(u NodeID) []Edge {
	if !g.Exists(u) {
		return nil
	}
	return g.inView()[u]
}

// InIDs returns the sources of u's incoming edges, in InEdges' order: the
// id in-adjacency, 4 B an edge and 4 B a node where the in-view spends 8 and
// 24. On a graph a Bulk built, the first call lays it out from the Bulk's
// runs without laying the in-view out, so a reader that needs only ids never
// pays for that view. The returned slice is owned by the graph and must not
// be modified; a mutation drops the index, and the next call builds it anew.
func (g *Graph) InIDs(u NodeID) []NodeID {
	if !g.Exists(u) {
		return nil
	}
	if !g.idReady.Load() {
		g.lazily(&g.idReady, g.buildInIDs)
	}
	lo, hi := g.inOff[u], g.inOff[u+1]
	return g.inIDs[lo:hi:hi]
}

// OutDegree returns the number of outgoing edges of u.
func (g *Graph) OutDegree(u NodeID) int {
	if !g.Exists(u) {
		return 0
	}
	return len(g.out[u])
}

// InDegree returns the number of incoming edges of u.
func (g *Graph) InDegree(u NodeID) int {
	if !g.Exists(u) {
		return 0
	}
	return len(g.inView()[u])
}

// Degree returns the total degree (in + out) of u.
func (g *Graph) Degree(u NodeID) int { return g.OutDegree(u) + g.InDegree(u) }

// NodeLabel returns the label string of u ("" when unlabelled or missing).
func (g *Graph) NodeLabel(u NodeID) string {
	if !g.Exists(u) {
		return ""
	}
	return g.labels.String(g.nodeLabel[u])
}

// NodeLabelID returns the interned label id of u.
func (g *Graph) NodeLabelID(u NodeID) Label {
	if !g.Exists(u) {
		return NoLabel
	}
	return g.nodeLabel[u]
}

// LabelID returns the interned id for label and whether it is known.
func (g *Graph) LabelID(label string) (Label, bool) { return g.labels.ID(label) }

// Nodes returns all live node ids in ascending order. It allocates; hot
// paths should iterate [0, MaxNodeID) with Exists instead.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, g.liveNodes)
	for id := NodeID(0); id < g.MaxNodeID(); id++ {
		if !g.removed[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// SortEdges orders es in place by (To, Label) — the canonical adjacency
// order used by the storage codec. Code that must agree with storage-backed
// execution (e.g. random-walk neighbour indexing) sorts through this
// helper so both sides see identical orderings.
func SortEdges(es []Edge) {
	slices.SortFunc(es, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.Label, b.Label))
	})
}

// SortedEdges returns a sorted copy of es, leaving the input untouched.
func SortedEdges(es []Edge) []Edge {
	out := make([]Edge, len(es))
	copy(out, es)
	SortEdges(out)
	return out
}

// Labels interns label strings to dense Label ids. It is safe for
// concurrent use: the networked router resolves pattern labels on each
// request's own goroutine while a labelled mutation interns a new one.
type Labels struct {
	mu   sync.RWMutex
	strs []string
	ids  map[string]Label
}

// newLabels returns a table holding only the empty label, id 0.
func newLabels() *Labels {
	return &Labels{strs: []string{""}, ids: map[string]Label{"": NoLabel}}
}

// Intern is TryIntern for the graph builders, which have no error to
// return: it panics on a full table.
func (t *Labels) Intern(s string) Label {
	id, ok := t.TryIntern(s)
	if !ok {
		panic("graph: label table overflow (more than 65536 distinct labels)")
	}
	return id
}

// TryIntern returns the id of s, assigning the next one when s is new; ok
// is false when s is new and all 65,536 ids are taken.
func (t *Labels) TryIntern(s string) (id Label, ok bool) {
	if id, ok := t.ID(s); ok {
		return id, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id, true
	}
	if len(t.strs) > int(^Label(0)) {
		return 0, false
	}
	id = Label(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id, true
}

// ID returns the interned id for s and whether it is known.
func (t *Labels) ID(s string) (Label, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.ids[s]
	return id, ok
}

// String resolves an interned id to its string ("" when unknown).
func (t *Labels) String(l Label) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(l) >= len(t.strs) {
		return ""
	}
	return t.strs[l]
}

// Len returns the number of distinct labels, the empty one included.
func (t *Labels) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.strs)
}
