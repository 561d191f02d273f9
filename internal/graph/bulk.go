package graph

import "slices"

// bulkChunk is how many edges one chunk of a Bulk holds: 256 KiB, large
// enough that the unused tail of each chunk (less than one run) is noise,
// small enough that the last, partly filled one is too.
const bulkChunk = 32 << 10

// Bulk builds an unlabelled graph from edges that arrive grouped by source
// — a run is Begin(src) followed by Edge(dst) for each of its targets — in
// memory proportional to the graph it returns and nothing else. Edges are
// written straight into fixed-size chunks that become the out-adjacency, so
// no per-node slice is ever grown; the in-adjacency is carved from one arena
// once the in-degrees are known, when the graph's in-view is first read. The
// result is the graph a sequential AddNode/AddEdgeFast replay of the same
// runs yields, adjacency order included: sources may arrive in any order and
// more than once (a repeated source appends to what it has), and every id
// below the largest one named exists.
type Bulk struct {
	chunks [][]Edge  // in arrival order; a run never straddles two
	runs   []bulkRun // in arrival order
	start  int       // where the current run begins in the last chunk
	n      int       // one past the largest id named
}

type bulkRun struct {
	src NodeID
	n   uint32
}

// Begin starts the run of edges leaving src.
func (b *Bulk) Begin(src NodeID) {
	if len(b.chunks) == 0 {
		b.chunks = append(b.chunks, make([]Edge, 0, bulkChunk))
	}
	b.start = len(b.chunks[len(b.chunks)-1])
	if len(b.runs) == cap(b.runs) {
		// Doubling, not append's 1.25 x for long slices: the run list is
		// the one thing here that is grown and then thrown away, and this
		// keeps what it sheds on the way below its final size.
		b.runs = slices.Grow(b.runs, max(len(b.runs), 1024))
	}
	b.runs = append(b.runs, bulkRun{src: src})
	b.n = max(b.n, int(src)+1)
}

// Edge adds src->dst to the run the last Begin started.
func (b *Bulk) Edge(dst NodeID) {
	last := &b.chunks[len(b.chunks)-1]
	if len(*last) == cap(*last) {
		// The chunk is full mid-run: the run moves to a chunk of its own
		// (twice its size so a run longer than any chunk still costs
		// amortised constant work per edge), and what it leaves behind is
		// cut off so the chunks keep holding whole runs only.
		run := (*last)[b.start:]
		next := make([]Edge, len(run), max(bulkChunk, 2*len(run)))
		copy(next, run)
		if b.start == 0 {
			*last = next
		} else {
			*last = (*last)[:b.start]
			b.chunks = append(b.chunks, next)
			last = &b.chunks[len(b.chunks)-1]
			b.start = 0
		}
	}
	*last = append(*last, Edge{To: dst})
	b.runs[len(b.runs)-1].n++
	b.n = max(b.n, int(dst)+1)
}

// eachRun calls fn with every non-empty run's source and edges, in arrival
// order. The edge slice has no spare capacity: handed out as an adjacency,
// an append to it reallocates instead of writing into the next run.
func (b *Bulk) eachRun(fn func(src NodeID, es []Edge)) {
	ci, off := 0, 0
	for _, r := range b.runs {
		if r.n == 0 {
			continue
		}
		for off == len(b.chunks[ci]) {
			ci, off = ci+1, 0
		}
		end := off + int(r.n)
		fn(r.src, b.chunks[ci][off:end:end])
		off = end
	}
}

// Graph returns the graph of everything added. The Bulk must not be used
// afterwards: its chunks are the graph's out-adjacency now, and the graph
// keeps its run list until the first read of an in-edge builds the
// in-adjacency from it (buildIn) — a holder that never reads one, like a
// hash router, never pays for that view, and one that reads only the
// in-neighbours' ids (InIDs) pays for them alone (buildInIDs).
func (b *Bulk) Graph() *Graph {
	g := &Graph{
		out:       make([][]Edge, b.n),
		nodeLabel: make([]Label, b.n),
		removed:   make([]bool, b.n),
		liveNodes: b.n,
		labels:    newLabels(),
		pending:   b,
	}
	b.eachRun(func(src NodeID, es []Edge) {
		if g.out[src] == nil {
			g.out[src] = es
		} else {
			g.out[src] = append(g.out[src], es...)
		}
		g.numEdges += len(es)
	})
	return g
}

// buildIn lays out the in-adjacency of a graph a Bulk returned, then lets
// the Bulk go. Each node's list is its own full-capacity window of one
// arena, empty until the second pass fills it in arrival order — the order
// a replay would have appended in. It runs once, before anything reads or
// changes the graph's in-view (Graph.inView), so the chunks the runs point
// into, and the edge count, are still as the Bulk left them.
func (g *Graph) buildIn() {
	b := g.pending
	if b == nil {
		return
	}
	g.pending = nil
	g.in = make([][]Edge, len(g.out))
	indeg := make([]uint32, len(g.out))
	b.eachRun(func(_ NodeID, es []Edge) {
		for _, e := range es {
			indeg[e.To]++
		}
	})
	arena := make([]Edge, g.numEdges)
	off := 0
	for v, d := range indeg {
		if d > 0 {
			end := off + int(d)
			g.in[v] = arena[off:off:end]
			off = end
		}
	}
	b.eachRun(func(src NodeID, es []Edge) {
		for _, e := range es {
			g.in[e.To] = append(g.in[e.To], Edge{To: src})
		}
	})
}

// buildInIDs lays out the id in-adjacency: one arena holding every node's
// in-neighbours in the in-view's order, and n+1 offsets into it. While a
// Bulk's runs are pending it reads them as buildIn does, arrival order being
// the in-view's, and leaves them to buildIn; once they are gone it reads the
// in-view.
func (g *Graph) buildInIDs() {
	n := len(g.out)
	off := make([]uint32, n+1)
	b := g.pending
	if b != nil {
		b.eachRun(func(_ NodeID, es []Edge) {
			for _, e := range es {
				off[e.To+1]++
			}
		})
	} else {
		for v, es := range g.in {
			off[v+1] = uint32(len(es))
		}
	}
	for v := range n {
		off[v+1] += off[v]
	}
	ids := make([]NodeID, off[n])
	if b != nil {
		// off[v] is v's cursor while the runs are read, so it ends where v+1
		// starts; one shift puts every start back.
		b.eachRun(func(src NodeID, es []Edge) {
			for _, e := range es {
				ids[off[e.To]] = src
				off[e.To]++
			}
		})
		copy(off[1:], off[:n])
		off[0] = 0
	} else {
		for v, es := range g.in {
			for i, e := range es {
				ids[int(off[v])+i] = e.To
			}
		}
	}
	g.inOff, g.inIDs = off, ids
}
