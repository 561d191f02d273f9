package landmark

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// The multi-source BFS behind BuildIndex (Then et al., "The More the
// Merrier: Efficient Multi-Source Graph Traversal", PVLDB 2014): up to 64
// landmarks share one search over the bi-directed graph, each node carrying
// a word whose bit b says landmark b has reached it. Every level is either
//
//   - a push (top-down): each frontier node hands the bits that reached it
//     at the last level on to its out- and in-neighbours, costing the
//     frontier's adjacency; or
//   - a pull (bottom-up): each node some landmark has yet to reach ORs the
//     frontier words of its out- and in-neighbours and writes only its own
//     words, so the node range splits across workers with no atomics.
//
// A level pulls when its frontier holds more than a pullRatio-th of the
// nodes (Beamer et al., "Direction-Optimizing Breadth-First Search", SC
// 2012), and pushes otherwise, so a high-diameter graph, whose levels hold
// a few nodes each, never pays a pass over every node per level. A search
// still pushing at depth finishDepth is deep and narrow: its levels share
// little, so each landmark finishes on its own (finish).
//
// Which way a level goes changes its cost, never its result: the bits a
// level sets are those of the unique BFS level sets, so the index is the
// same whatever the directions, the finish or the worker count.

// sweepBits is how many landmarks one sweep carries: the bits of a word.
const sweepBits = 64

// pullRatio sets the direction: a level pulls when its frontier holds more
// than 1/pullRatio of the nodes.
const pullRatio = 14

// finishDepth is the depth at which a search still pushing finishes one
// landmark at a time. The 60 k WebGraph preset's searches end after six or
// seven levels; a ring's go on for half its length.
const finishDepth = 64

// pullChunk is how many nodes a worker takes from a pull at a time.
const pullChunk = 2048

// sweep is the state one BuildIndex reuses across its batches.
type sweep struct {
	g *graph.Graph
	n int
	// seen[v] has bit b set once landmark b has reached v, cur[v] the bits
	// that reached v at the last level and next[v] those reaching it at the
	// level being built; next is all zero between levels.
	seen, cur, next []uint64
	// While the search pushes, curList holds the nodes whose cur word is
	// not zero, and a push lists the nodes it reaches in nextList.
	curList, nextList []graph.NodeID
	// frontier counts the frontier's nodes.
	frontier int
	// rows are the batch's distance fields, bit b's at rows[b].
	rows [][]uint16
	full uint64 // the bits of the batch's live landmarks
	dist uint16 // the distance the level being built records

	// A pull hands its chunks out through claimed; the helpers, the workers
	// beyond the caller, wait on wake, and reached[c] counts the nodes chunk
	// c reached.
	helpers int
	claimed atomic.Int64
	wake    chan struct{}
	done    sync.WaitGroup
	reached []int
}

// newSweep returns a sweep over g whose pulls split across workers.
func newSweep(g *graph.Graph, workers int) *sweep {
	n := int(g.MaxNodeID())
	words := make([]uint64, 3*n)
	lists := make([]graph.NodeID, 2*n)
	s := &sweep{
		g:        g,
		n:        n,
		seen:     words[:n:n],
		cur:      words[n : 2*n : 2*n],
		next:     words[2*n:],
		curList:  lists[:0:n],
		nextList: lists[n:n],
		reached:  make([]int, (n+pullChunk-1)/pullChunk),
	}
	if s.helpers = min(workers, len(s.reached)) - 1; s.helpers > 0 {
		s.wake = make(chan struct{})
		for range s.helpers {
			go s.help()
		}
	}
	return s
}

// stop releases the helpers and returns once they have exited.
func (s *sweep) stop() {
	if s.wake != nil {
		s.done.Add(s.helpers)
		close(s.wake)
		s.done.Wait()
	}
}

// help is a helper's life: its share of the chunks of every pull, then
// done once more on the way out.
func (s *sweep) help() {
	for range s.wake {
		s.pullChunks()
		s.done.Done()
	}
	s.done.Done()
}

// run fills rows, which it expects all Inf, with the distance fields of
// landmarks (at most sweepBits of them).
func (s *sweep) run(landmarks []graph.NodeID, rows [][]uint16) {
	clear(s.seen)
	s.rows, s.full, s.dist = rows, 0, 0
	s.curList = s.curList[:0]
	for b, l := range landmarks {
		if !s.g.Exists(l) {
			continue // a removed or unknown landmark reaches nothing
		}
		if s.cur[l] == 0 {
			s.curList = append(s.curList, l)
		}
		bit := uint64(1) << b
		s.full |= bit
		s.seen[l] |= bit
		s.cur[l] |= bit
		rows[b][l] = 0
	}
	s.frontier = len(s.curList)
	for pushing := true; s.frontier > 0; {
		if pushing && s.dist == finishDepth {
			s.finish()
			for _, u := range s.curList {
				s.cur[u] = 0
			}
			return
		}
		if s.dist < Inf-1 {
			s.dist++
		}
		pull := s.frontier*pullRatio > s.n
		if !pull && !pushing {
			s.curList = s.curList[:0]
			for v, w := range s.cur {
				if w != 0 {
					s.curList = append(s.curList, graph.NodeID(v))
				}
			}
		}
		if pushing = !pull; pull {
			s.pull()
		} else {
			s.push()
		}
	}
}

// push builds the next level top-down from curList, zeroing the cur words
// as it goes. A bit is final once set (every frontier node that could set
// it does so at this level), so push marks it seen and records its
// distance on the spot.
func (s *sweep) push() {
	seen, cur, next, rows, dist := s.seen, s.cur, s.next, s.rows, s.dist
	list := s.nextList[:0]
	for _, u := range s.curList {
		f := cur[u]
		cur[u] = 0
		reach := func(w graph.NodeID) {
			fresh := f &^ seen[w]
			if fresh == 0 {
				return
			}
			if next[w] == 0 {
				list = append(list, w)
			}
			next[w] |= fresh
			seen[w] |= fresh
			for b := fresh; b != 0; b &= b - 1 {
				rows[bits.TrailingZeros64(b)][w] = dist
			}
		}
		for _, e := range s.g.OutEdges(u) {
			reach(e.To)
		}
		for _, w := range s.g.InIDs(u) {
			reach(w)
		}
	}
	s.curList, s.nextList = list, s.curList
	s.cur, s.next = s.next, s.cur
	s.frontier = len(list)
}

// pull builds the next level bottom-up over every node, split by chunk
// across the helpers and the caller; the level it builds becomes cur.
func (s *sweep) pull() {
	s.claimed.Store(0)
	s.done.Add(s.helpers)
	for range s.helpers {
		s.wake <- struct{}{}
	}
	s.pullChunks()
	s.done.Wait()
	s.frontier = 0
	for _, r := range s.reached {
		s.frontier += r
	}
	clear(s.cur)
	s.cur, s.next = s.next, s.cur
}

// pullChunks claims chunks of the node range until none is left.
func (s *sweep) pullChunks() {
	for c := int(s.claimed.Add(1)) - 1; c < len(s.reached); c = int(s.claimed.Add(1)) - 1 {
		s.reached[c] = s.pullRange(c*pullChunk, min((c+1)*pullChunk, s.n))
	}
}

// pullRange is a pull over the nodes [lo, hi); it returns how many nodes
// it reached.
func (s *sweep) pullRange(lo, hi int) int {
	seen, cur, next, rows, dist, full := s.seen, s.cur, s.next, s.rows, s.dist, s.full
	reached := 0
	for v := lo; v < hi; v++ {
		had := seen[v]
		if had == full {
			continue
		}
		var in uint64
		for _, e := range s.g.OutEdges(graph.NodeID(v)) {
			in |= cur[e.To]
		}
		for _, w := range s.g.InIDs(graph.NodeID(v)) {
			in |= cur[w]
		}
		fresh := in &^ had
		if fresh == 0 {
			continue
		}
		next[v] = fresh
		seen[v] = had | fresh
		for b := fresh; b != 0; b &= b - 1 {
			rows[bits.TrailingZeros64(b)][v] = dist
		}
		reached++
	}
	return reached
}

// finish completes a deep, narrow search one landmark at a time, the
// landmarks spread across the workers: past finishDepth most frontier
// nodes carry one bit, so sharing the edge scans saves little and the
// bit bookkeeping costs on every node. Each landmark's search resumes from
// its frontier nodes, its row marking what it has reached (anything not
// Inf), so it needs a queue and nothing else.
func (s *sweep) finish() {
	var claimed atomic.Int64 // the next bit nobody has taken
	var wg sync.WaitGroup
	for range min(s.helpers+1, bits.OnesCount64(s.full)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queue := make([]graph.NodeID, 0, s.n)
			for b := int(claimed.Add(1)) - 1; b < sweepBits; b = int(claimed.Add(1)) - 1 {
				if s.full&(1<<b) != 0 {
					queue = s.finishOne(b, queue)
				}
			}
		}()
	}
	wg.Wait()
}

// finishOne finishes bit b's search, with queue as scratch.
func (s *sweep) finishOne(b int, queue []graph.NodeID) []graph.NodeID {
	row := s.rows[b]
	queue = queue[:0]
	for _, u := range s.curList {
		if s.cur[u]&(1<<b) != 0 {
			queue = append(queue, u)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := row[u]
		if d < Inf-1 {
			d++
		}
		for _, e := range s.g.OutEdges(u) {
			if row[e.To] == Inf {
				row[e.To] = d
				queue = append(queue, e.To)
			}
		}
		for _, w := range s.g.InIDs(u) {
			if row[w] == Inf {
				row[w] = d
				queue = append(queue, w)
			}
		}
	}
	return queue
}
