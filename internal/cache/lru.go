// Package cache implements the query processors' cache (Section 2.3):
// a byte-capacity-bounded LRU keyed by node id.
//
// "Whenever some data is retrieved from the storage, it is saved in cache
// ... When the addition of a new entry surpasses this storage limit, one or
// more old entries are evicted from the cache. We chose the LRU eviction
// policy because of its simplicity ... it favors recent queries. Thus, it
// performs well with our smart routing schemes."
//
// The cache is generic over the cached value. Processors cache each record
// as the bytes storage holds it, charged its length — the paper's "data
// retrieved from the storage" — and decode it per query into an executor's
// arena (Step), so a byte limit holds as many records as their stored size
// allows. Entries live in a slot array linked
// by indices (recency list) with evicted slots recycled through a free
// list, so steady-state insert/evict churn allocates nothing. An LRU is not
// safe for concurrent use. Processor puts one behind a lock with the fetch
// both engines run through it (Step).
package cache

import "repro/internal/metrics"

// EntryOverhead is the per-entry cost charged against the capacity in
// addition to the caller-declared value size: a 48-byte slot of the recency
// array and the slack of its growth, a share of the key map, and the
// rounding of a value's allocation up to its size class. It is measured,
// not guessed — TestChargeCoversHeap fills a processor cache with stored
// WebGraph records and holds the live heap per entry under the charge. With
// records of 31 B on average it is the smallest constant that covers both
// of the test's capacities: at 129 the half-of-stored cache holds 1,188
// entries in 147.7 B of heap each and the four-times-stored cache
// 9,502 in 129.0 B, charged 160.2 and 160.4 B; at 128 the first one's 1,196
// entries overflow the slot array's 1,194 and grow it to 1,706, 167.5 B of
// heap each against 159.2 charged.
const EntryOverhead = 129

// Stats counts cache activity. TouchedBytes tracks the cumulative size of
// values admitted, which the capacity experiments use to size working sets.
type Stats struct {
	Hits, Misses   int64
	Inserts        int64
	Evictions      int64
	Rejected       int64 // values larger than the whole cache
	CurrentBytes   int64
	CapacityBytes  int64
	CumInsertBytes int64
}

// Counters converts the snapshot into the shared observability form every
// transport reports through metrics.Snapshot.
func (s Stats) Counters() metrics.CacheCounters {
	return metrics.CacheCounters{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Inserts:       s.Inserts,
		Evictions:     s.Evictions,
		Rejected:      s.Rejected,
		CurrentBytes:  s.CurrentBytes,
		CapacityBytes: s.CapacityBytes,
	}
}

// none marks an empty list link / absent slot index.
const none = int32(-1)

// slot is one cache entry, linked into the recency list by index.
type slot[V any] struct {
	key        uint64
	val        V
	cost       int64
	prev, next int32
}

// LRU is a least-recently-used cache with byte-capacity accounting.
type LRU[V any] struct {
	capacity int64
	size     int64
	slots    []slot[V]
	free     []int32
	head     int32 // most recent; none when empty
	tail     int32 // least recent; none when empty
	items    map[uint64]int32
	stats    Stats
}

// New creates a cache holding up to capacity bytes (values + per-entry
// overhead). A capacity <= 0 yields a cache that stores nothing — the
// paper's "no-cache" mode uses that degenerate configuration.
func New[V any](capacity int64) *LRU[V] {
	return &LRU[V]{
		capacity: capacity,
		head:     none,
		tail:     none,
		items:    make(map[uint64]int32),
	}
}

// unlink detaches slot i from the recency list.
func (c *LRU[V]) unlink(i int32) {
	s := &c.slots[i]
	if s.prev != none {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next != none {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// pushFront links slot i as most-recently used.
func (c *LRU[V]) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = none, c.head
	if c.head != none {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail == none {
		c.tail = i
	}
}

// Get returns the cached value for key, marking it most-recently-used.
func (c *LRU[V]) Get(key uint64) (V, bool) {
	if i, ok := c.items[key]; ok {
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		c.stats.Hits++
		return c.slots[i].val, true
	}
	var zero V
	c.stats.Misses++
	return zero, false
}

// Contains reports residency without touching recency or statistics.
func (c *LRU[V]) Contains(key uint64) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or replaces the value for key. valBytes is the caller's size
// of the value (a stored record's length, for a processor); the cache adds
// EntryOverhead. Oversized values are rejected rather than flushing the
// whole cache. It returns the number of entries evicted.
func (c *LRU[V]) Put(key uint64, val V, valBytes int64) int {
	cost := valBytes + EntryOverhead
	if cost > c.capacity {
		c.stats.Rejected++
		// An existing entry under this key keeps its old value; the caller
		// replaced it with something uncacheable, so drop it.
		if i, ok := c.items[key]; ok {
			c.removeSlot(i)
		}
		return 0
	}
	if i, ok := c.items[key]; ok {
		s := &c.slots[i]
		c.size += cost - s.cost
		s.val = val
		s.cost = cost
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
	} else {
		var i int32
		if n := len(c.free); n > 0 {
			i = c.free[n-1]
			c.free = c.free[:n-1]
			c.slots[i] = slot[V]{key: key, val: val, cost: cost}
		} else {
			i = int32(len(c.slots))
			c.slots = append(c.slots, slot[V]{key: key, val: val, cost: cost})
		}
		c.pushFront(i)
		c.items[key] = i
		c.size += cost
		c.stats.Inserts++
		c.stats.CumInsertBytes += valBytes
	}
	evicted := 0
	for c.size > c.capacity {
		c.evictOldest()
		evicted++
	}
	return evicted
}

// Peek returns the cached value for key without touching recency or the
// counters.
func (c *LRU[V]) Peek(key uint64) (V, bool) {
	if i, ok := c.items[key]; ok {
		return c.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Update replaces the value of a resident key in place: its recency and the
// hit, miss and insert counters stay as they were, its new size is charged,
// and the oldest entries are evicted if that overflows the capacity. A value
// larger than the whole cache drops the key. It reports whether key was
// resident.
func (c *LRU[V]) Update(key uint64, val V, valBytes int64) bool {
	i, ok := c.items[key]
	if !ok {
		return false
	}
	cost := valBytes + EntryOverhead
	if cost > c.capacity {
		c.removeSlot(i)
		return true
	}
	s := &c.slots[i]
	c.size += cost - s.cost
	s.val, s.cost = val, cost
	for c.size > c.capacity {
		c.evictOldest()
	}
	return true
}

// Remove drops key from the cache, reporting whether it was resident.
func (c *LRU[V]) Remove(key uint64) bool {
	i, ok := c.items[key]
	if ok {
		c.removeSlot(i)
	}
	return ok
}

func (c *LRU[V]) evictOldest() {
	if c.tail == none {
		return
	}
	c.removeSlot(c.tail)
	c.stats.Evictions++
}

// removeSlot unlinks slot i, forgets its key and recycles the slot.
func (c *LRU[V]) removeSlot(i int32) {
	s := &c.slots[i]
	c.unlink(i)
	delete(c.items, s.key)
	c.size -= s.cost
	var zero slot[V]
	*s = zero // release the value for GC
	c.free = append(c.free, i)
}

// Len returns the number of resident entries.
func (c *LRU[V]) Len() int { return len(c.items) }

// Size returns the current charged bytes (values + overhead).
func (c *LRU[V]) Size() int64 { return c.size }

// Stats returns a snapshot of the counters.
func (c *LRU[V]) Stats() Stats {
	s := c.stats
	s.CurrentBytes = c.size
	s.CapacityBytes = c.capacity
	return s
}

// Reset empties the cache and zeroes the statistics (cold-cache start, as
// every experiment in Section 4 begins with an empty cache).
func (c *LRU[V]) Reset() {
	clear(c.slots) // release cached values for GC before truncating
	c.slots = c.slots[:0]
	c.free = c.free[:0]
	c.head, c.tail = none, none
	clear(c.items)
	c.size = 0
	c.stats = Stats{}
}

// Keys returns the resident keys from most- to least-recently used.
// Intended for tests and debugging.
func (c *LRU[V]) Keys() []uint64 {
	out := make([]uint64, 0, len(c.items))
	for i := c.head; i != none; i = c.slots[i].next {
		out = append(out, c.slots[i].key)
	}
	return out
}
