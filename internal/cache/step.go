package cache

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/gstore"
)

// RecordSize is what a cached record is charged against the capacity (the
// cache adds EntryOverhead): 16 bytes of header and 8 per edge in either
// direction, an estimate of the decoded record's resident size.
func RecordSize(r *gstore.Record) int64 {
	return int64(16 + 8*(len(r.Out)+len(r.In)))
}

// Processor is one query processor's cache of decoded records: the LRU, a
// ring of the keys most recently evicted from it or updated in it, and the
// lock that guards both, so concurrent executors share it. A nil *Processor
// is the paper's no-cache mode: Step fetches everything, and Evict, Apply and
// Stats do nothing.
type Processor struct {
	mu  sync.Mutex
	lru *LRU[gstore.Record]
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
	return &Processor{lru: New[gstore.Record](capacity)}
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
// stream (gstore.AppendEdits) instead of dropping it: the record is replaced
// by gstore.ApplyEdits of it — recency and the hit, miss and insert counters
// untouched, its new size charged — and a stream that does not apply, the
// empty one included, evicts it. Either way, resident or not, the key is
// remembered as Evict remembers it, so a fetch that straddles the update
// cannot cache the record as it was before the write.
func (c *Processor) Apply(key uint64, edits []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if rec, ok := c.lru.Peek(key); ok {
		if next, err := gstore.ApplyEdits(rec, edits); err == nil {
			c.lru.Update(key, next, RecordSize(&next))
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
	// Read fetches the records of ids into dst positionally (OK false for
	// an id storage holds no record of). probed is what the step's probe
	// counted before it.
	Read(ids []graph.NodeID, dst []gstore.FetchResult, probed Counts) error
	// Heat is told the ids of the records a step read from storage, the
	// adaptive-placement planner's read signal.
	Heat(ids []graph.NodeID)
}

// Counts is what one step did: the probe's hits and misses, and how many
// fetched records it offered the cache.
type Counts struct {
	Hits, Misses, Inserts int
}

// Scratch is one executor's step buffers. Everything in it is overwritten
// per step, so the records Step returns are valid until the next one.
type Scratch struct {
	recs, got []gstore.FetchResult
	miss      []graph.NodeID
	pos       []int32 // pos[j] is miss[j]'s index in recs
}

// Retained returns the length of the longest batch sc has held, so an owner
// can drop a Scratch a giant query bloated.
func (sc *Scratch) Retained() int { return cap(sc.recs) }

// resized returns *buf at length n, reallocating only when it has to.
func resized(buf *[]gstore.FetchResult, n int) []gstore.FetchResult {
	if cap(*buf) < n {
		*buf = make([]gstore.FetchResult, n)
	}
	return (*buf)[:n]
}

// Step is the processor's fetch, the same on both transports: probe the
// cache for ids, read the misses from b in one batch, cache what came back
// at RecordSize unless it was evicted or updated while the read was out, and
// tell b which records it read. The records come back positionally aligned
// with ids in sc's buffer. On a read error nothing is cached or heated.
func (c *Processor) Step(sc *Scratch, b Backend, ids []graph.NodeID) ([]gstore.FetchResult, Counts, error) {
	recs := resized(&sc.recs, len(ids))
	if c == nil {
		// ids goes to the backend as a copy: the caller's slice (often an
		// array on its stack) must not escape through the interface.
		miss := append(sc.miss[:0], ids...)
		sc.miss = miss
		n := Counts{Misses: len(miss)}
		if len(miss) == 0 {
			return recs, n, nil
		}
		if err := b.Read(miss, recs, n); err != nil {
			return nil, n, err
		}
		hot := miss[:0]
		for i, r := range recs {
			if r.OK {
				hot = append(hot, miss[i])
			}
		}
		if len(hot) > 0 {
			b.Heat(hot)
		}
		return recs, n, nil
	}

	miss, pos := sc.miss[:0], sc.pos[:0]
	c.mu.Lock()
	seq := c.evictSeq
	for i, id := range ids {
		rec, ok := c.lru.Get(uint64(id))
		recs[i] = gstore.FetchResult{Record: rec, OK: ok}
		if !ok {
			miss = append(miss, id)
			pos = append(pos, int32(i))
		}
	}
	c.mu.Unlock()
	sc.miss, sc.pos = miss, pos
	n := Counts{Hits: len(ids) - len(miss), Misses: len(miss)}
	if len(miss) == 0 {
		return recs, n, nil
	}
	got := resized(&sc.got, len(miss))
	if err := b.Read(miss, got, n); err != nil {
		return nil, n, err
	}
	hot := miss[:0] // filtered in place: miss[j] is read before hot can reach it
	c.mu.Lock()
	for j, fr := range got {
		if !fr.OK {
			continue // dangling id: nothing stored, nothing cached
		}
		id := miss[j]
		recs[pos[j]] = fr
		n.Inserts++
		if !c.evictedSince(seq, uint64(id)) {
			c.lru.Put(uint64(id), fr.Record, RecordSize(&fr.Record))
		}
		hot = append(hot, id)
	}
	c.mu.Unlock()
	if len(hot) > 0 {
		b.Heat(hot)
	}
	return recs, n, nil
}
