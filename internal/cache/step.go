package cache

import (
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/gstore"
)

// Processor is one query processor's cache of records as storage stores
// them — each the encoded bytes it read, charged their length — the LRU, a
// ring of the keys most recently evicted from it or updated in it, and the
// lock that guards both, so concurrent executors share it. A nil *Processor
// is the paper's no-cache mode: Step fetches everything, and Evict, Apply and
// Stats do nothing.
type Processor struct {
	mu  sync.Mutex
	lru *LRU[[]byte]
	// evicted is a ring of the keys most recently evicted or updated and
	// evictSeq how many ever were: evicted[(evictSeq-1)%len] is the newest. A
	// storage fetch that straddles the eviction or update of one of its keys
	// may have been answered before the write it announced, so Step lets that
	// record answer the query that asked for it but does not cache it.
	evicted  [64]uint64
	evictSeq uint64
}

// NewProcessor creates a processor cache of capacity bytes.
func NewProcessor(capacity int64) *Processor {
	return &Processor{lru: New[[]byte](capacity)}
}

// Stats snapshots the cache counters.
func (c *Processor) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Stats()
}

// Contains reports whether id's record is resident, touching nothing.
func (c *Processor) Contains(id graph.NodeID) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Contains(uint64(id))
}

// Evict drops every named record, so the next read refetches the rewritten
// version from storage, and remembers the keys for the steps in flight.
func (c *Processor) Evict(keys ...uint64) {
	if c == nil || len(keys) == 0 {
		return
	}
	c.mu.Lock()
	for _, k := range keys {
		c.lru.Remove(k)
		c.remember(k)
	}
	c.mu.Unlock()
}

// Apply brings key's resident record up to date with one mutation's edit
// stream (gstore.AppendEdits) instead of dropping it: gstore.EditValue edits
// the entry in the form it is cached in — a whole record, or an out-prefix
// that takes the label and out-edge edits — and it is stored re-encoded,
// recency and the hit, miss and insert counters untouched, its new size
// charged; a stream that does not apply, the empty one included, evicts it.
// Either way, resident or not, the key is remembered as Evict remembers it,
// so a fetch that straddles the update cannot cache the record as it was
// before the write.
func (c *Processor) Apply(key uint64, edits []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if raw, ok := c.lru.Peek(key); ok {
		if enc, err := gstore.EditValue(graph.NodeID(key), raw, edits); err == nil {
			c.lru.Update(key, enc, int64(len(enc)))
		} else {
			c.lru.Remove(key)
		}
	}
	c.remember(key)
	c.mu.Unlock()
}

// remember enters key in the ring of recent evictions. Caller holds c.mu.
func (c *Processor) remember(key uint64) {
	c.evicted[c.evictSeq%uint64(len(c.evicted))] = key
	c.evictSeq++
}

// evictedSince reports whether key was evicted or updated after the count
// read seq — or may have been: past what the ring remembers every key counts
// as evicted. Caller holds c.mu.
func (c *Processor) evictedSince(seq, key uint64) bool {
	n := c.evictSeq - seq
	if n > uint64(len(c.evicted)) {
		return true
	}
	for i := uint64(1); i <= n; i++ {
		if c.evicted[(c.evictSeq-i)%uint64(len(c.evicted))] == key {
			return true
		}
	}
	return false
}

// Backend is where a step's misses come from: the storage tier, reached the
// way the engine reaches it.
type Backend interface {
	// Read fetches the stored bytes of ids into dst positionally (nil for
	// an id storage holds no record of), each as a read in direction dir
	// ships it (gstore.Project: an out-prefix for graph.Out). probed is what
	// the step's probe counted before it. The bytes need stay unmodified
	// only until the step returns: it decodes them and copies those it
	// caches.
	Read(ids []graph.NodeID, dir graph.Direction, dst [][]byte, probed Counts) error
	// Heat is told the ids of the records a step read from storage, the
	// adaptive-placement planner's read signal.
	Heat(ids []graph.NodeID)
}

// Counts is what one step did: the probe's hits and misses, and how many
// fetched records it offered the cache.
type Counts struct {
	Hits, Misses, Inserts int
}

// Scratch is one executor's step buffers. The result and miss buffers are
// overwritten per step; the records' edge lists live in an arena that only
// Reset truncates, so a record stays valid across the steps of one query or
// subtask — mquery's ball and pattern join keep earlier levels' records.
type Scratch struct {
	recs []gstore.FetchResult
	// bytes holds a step's stored bytes: ids[i]'s at i (nil if none), and
	// past len(ids) the misses' as the backend read them.
	bytes [][]byte
	miss  []graph.NodeID
	pos   []int32      // pos[j] is miss[j]'s index in recs
	edges []graph.Edge // the arena every step decodes into
}

// Reset frees the arena for reuse: every record a step decoded since the
// last Reset is invalid from here on. An executor calls it at the start of
// each point query and each subtask.
func (sc *Scratch) Reset() { sc.edges = sc.edges[:0] }

// Retained returns the larger of the longest batch and the most edges one
// query or subtask has held in sc, so an owner can drop a Scratch a giant
// query bloated.
func (sc *Scratch) Retained() int { return max(cap(sc.recs), cap(sc.edges)) }

// resized returns *buf at length n, reallocating only when it has to, and
// then to at least 64 entries and at least double, so an executor's buffers
// settle after a few batches.
func resized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n, max(n, 2*cap(*buf), 64))
	}
	return (*buf)[:n]
}

// Step is the processor's fetch, the same on both transports: probe the
// cache for ids, read the misses from b in one batch, decode hits and
// misses alike into sc's arena, cache the misses' bytes unless they were
// evicted or updated while the read was out, and tell b which records it
// read. The records come back positionally aligned with ids in sc's buffer;
// their edge lists stay valid until sc.Reset. On a read or decode error
// nothing is cached or heated.
//
// dir is what the caller reads of the records. A step that reads only
// out-edges (graph.Out) reads its misses as out-prefixes, caches them so,
// and decodes no in-list but that of a value storage shipped whole: its
// records' In is nil otherwise. Any other step needs whole records: an
// out-prefix in the cache is a miss to it, and the whole record it fetches
// takes the prefix's place.
func (c *Processor) Step(sc *Scratch, b Backend, ids []graph.NodeID, dir graph.Direction) ([]gstore.FetchResult, Counts, error) {
	buf := resized(&sc.bytes, 2*len(ids))
	raw := buf[:len(ids)]
	// A nil cache holds nothing: every id is a miss, and nothing is cached.
	// The misses go to the backend as a copy of ids, so the caller's slice
	// (often an array on its stack) does not escape through the interface.
	miss, pos := sc.miss[:0], sc.pos[:0]
	var seq uint64
	if c != nil {
		c.mu.Lock()
		seq = c.evictSeq
	}
	for i, id := range ids {
		if c != nil {
			if dir != graph.Out {
				if v, ok := c.lru.Peek(uint64(id)); ok && gstore.IsPrefix(v) {
					c.lru.Remove(uint64(id)) // so Get counts the miss it is here
				}
			}
			v, ok := c.lru.Get(uint64(id))
			if raw[i] = v; ok {
				continue
			}
		}
		miss = append(miss, id)
		pos = append(pos, int32(i))
	}
	if c != nil {
		c.mu.Unlock()
	}
	sc.miss, sc.pos = miss, pos
	n := Counts{Hits: len(ids) - len(miss), Misses: len(miss)}
	got := buf[len(ids) : len(ids)+len(miss)]
	if len(miss) > 0 {
		if err := b.Read(miss, dir, got, n); err != nil {
			return nil, n, err
		}
		for j, v := range got {
			raw[pos[j]] = v
		}
	}
	recs, err := sc.decode(ids, raw, dir, pos)
	if err != nil || len(miss) == 0 {
		return recs, n, err
	}
	hot := miss[:0] // filtered in place: miss[j] is read before hot can reach it
	if c != nil {
		c.mu.Lock()
	}
	for j, v := range got {
		if v == nil {
			continue // dangling id: nothing stored, nothing cached
		}
		id := miss[j]
		if c != nil {
			n.Inserts++
			if !c.evictedSince(seq, uint64(id)) {
				c.lru.Put(uint64(id), append([]byte(nil), v...), int64(len(v)))
			}
		}
		hot = append(hot, id)
	}
	if c != nil {
		c.mu.Unlock()
	}
	clear(got) // the scratch must not pin what the backend read
	if len(hot) > 0 {
		b.Heat(hot)
	}
	return recs, n, nil
}

// decode turns one step's stored bytes into its records, in one pass,
// appending their edges to the arena, and lets go of the bytes. fetched
// holds, ascending, the positions of the bytes storage just read; the rest
// are cached values, which were checked whole when they were cached. A
// cached value is never written after it is stored (Apply stores a fresh
// encoding), so hits decode outside the lock.
//
// Under dir graph.Out a record decodes as far as its out-list: a cached
// whole record stops there, and so does an out-prefix storage shipped. A
// whole value storage shipped is one OutPrefix refused, or one from a
// backend that does not cut, and decodes whole, strictly.
func (sc *Scratch) decode(ids []graph.NodeID, raw [][]byte, dir graph.Direction, fetched []int32) ([]gstore.FetchResult, error) {
	recs := resized(&sc.recs, len(ids))
	// An edge takes at least one byte, after a head and two counts of one
	// byte at least — one count in an out-prefix — so this reserves room
	// for the whole step at once. A growing arena at least doubles, from
	// 4,096 edges (32 KiB, about what a 2-hop ball around a WebGraph hub
	// decodes), so an executor's arena settles within its first few
	// queries.
	overhead := 3
	if dir == graph.Out {
		overhead = 2
	}
	need := 0
	for _, v := range raw {
		need += max(len(v)-overhead, 0)
	}
	if cap(sc.edges)-len(sc.edges) < need {
		sc.edges = slices.Grow(sc.edges, max(need, cap(sc.edges), 4096))
	}
	for i, v := range raw {
		raw[i] = nil
		read := len(fetched) > 0 && fetched[0] == int32(i)
		if read {
			fetched = fetched[1:]
		}
		if v == nil {
			recs[i] = gstore.FetchResult{}
			continue
		}
		var r gstore.Record
		var edges []graph.Edge
		var err error
		if dir == graph.Out && (!read || gstore.IsPrefix(v)) {
			r, edges, err = gstore.DecodeOutInto(ids[i], v, sc.edges)
		} else {
			r, edges, err = gstore.DecodeInto(ids[i], v, sc.edges)
		}
		if err != nil {
			return nil, err
		}
		sc.edges = edges
		recs[i] = gstore.FetchResult{Record: r, OK: true}
	}
	return recs, nil
}
