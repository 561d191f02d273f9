package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestGetMissOnEmpty(t *testing.T) {
	c := New[string](1024)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache returned a hit")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPutGet(t *testing.T) {
	c := New[string](1024)
	c.Put(1, "one", 3)
	v, ok := c.Get(1)
	if !ok || v != "one" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if s := c.Stats(); s.Hits != 1 || s.Inserts != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReplaceUpdatesValueAndSize(t *testing.T) {
	c := New[string](1024)
	c.Put(1, "a", 100)
	sz := c.Size()
	c.Put(1, "b", 10)
	if v, _ := c.Get(1); v != "b" {
		t.Fatalf("value after replace = %q", v)
	}
	if c.Size() >= sz {
		t.Fatalf("size did not shrink on smaller replace: %d -> %d", sz, c.Size())
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replace", c.Len())
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	// Capacity fits exactly 3 entries of cost 36+EntryOverhead.
	c := New[int](3 * (36 + EntryOverhead))
	c.Put(1, 1, 36)
	c.Put(2, 2, 36)
	c.Put(3, 3, 36)
	// Touch 1 so 2 becomes the oldest.
	c.Get(1)
	c.Put(4, 4, 36)
	if c.Contains(2) {
		t.Fatal("LRU kept the least-recently-used entry")
	}
	for _, k := range []uint64{1, 3, 4} {
		if !c.Contains(k) {
			t.Fatalf("entry %d evicted out of order", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

func TestPutMayEvictMultiple(t *testing.T) {
	c := New[int](3 * (36 + EntryOverhead))
	c.Put(1, 1, 36) // cost 36+EntryOverhead
	c.Put(2, 2, 36)
	c.Put(3, 3, 36)
	// Cost 100 more than two of the others forces out several entries.
	evicted := c.Put(4, 4, 36+EntryOverhead+100)
	if evicted < 2 {
		t.Fatalf("evicted %d entries, want >= 2", evicted)
	}
	if c.Size() > c.capacity {
		t.Fatalf("size %d exceeds capacity %d", c.Size(), c.capacity)
	}
	if !c.Contains(4) {
		t.Fatal("newly inserted entry missing")
	}
}

func TestOversizedValueRejected(t *testing.T) {
	c := New[int](36 + EntryOverhead)
	c.Put(1, 1, 10)
	c.Put(2, 2, 500) // cost 500+EntryOverhead > capacity
	if c.Contains(2) {
		t.Fatal("oversized value admitted")
	}
	if !c.Contains(1) {
		t.Fatal("oversized Put flushed existing entries")
	}
	if s := c.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
}

func TestOversizedReplaceDropsOldEntry(t *testing.T) {
	c := New[int](200)
	c.Put(1, 1, 10)
	c.Put(1, 2, 5000)
	if c.Contains(1) {
		t.Fatal("stale value left behind after oversized replace")
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := New[int](0)
	c.Put(1, 1, 0)
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("zero-capacity cache returned a hit")
	}
}

func TestRemove(t *testing.T) {
	c := New[int](1024)
	c.Put(1, 1, 8)
	if !c.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if c.Remove(1) {
		t.Fatal("second Remove(1) = true")
	}
	if c.Size() != 0 || c.Len() != 0 {
		t.Fatalf("size=%d len=%d after remove", c.Size(), c.Len())
	}
}

func TestReset(t *testing.T) {
	c := New[int](1024)
	c.Put(1, 1, 8)
	c.Get(1)
	c.Reset()
	if c.Len() != 0 || c.Size() != 0 {
		t.Fatal("Reset left entries")
	}
	if s := c.Stats(); s.Hits != 0 || s.Inserts != 0 {
		t.Fatalf("Reset left stats: %+v", s)
	}
	// Cache still usable after Reset.
	c.Put(2, 2, 8)
	if _, ok := c.Get(2); !ok {
		t.Fatal("cache unusable after Reset")
	}
}

func TestKeysRecencyOrder(t *testing.T) {
	c := New[int](10000)
	c.Put(1, 1, 0)
	c.Put(2, 2, 0)
	c.Put(3, 3, 0)
	c.Get(1)
	keys := c.Keys()
	want := []uint64{1, 3, 2}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("Keys() = %v, want %v", keys, want)
		}
	}
}

// Property: size never exceeds capacity and equals the sum of resident
// entry costs, across an arbitrary workload.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(ops []uint16, capSeed uint8) bool {
		capacity := int64(capSeed)*37 + 150
		c := New[uint16](capacity)
		for _, op := range ops {
			key := uint64(op % 32)
			switch {
			case op%3 == 0:
				c.Get(key)
			case op%7 == 0:
				c.Remove(key)
			default:
				c.Put(key, op, int64(op%97))
			}
			if c.Size() > capacity {
				return false
			}
		}
		// Recount from scratch: Len entries, each cost >= EntryOverhead.
		if int64(c.Len())*EntryOverhead > c.Size() && c.Len() > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a just-inserted (cacheable) key is always resident.
func TestQuickInsertedResident(t *testing.T) {
	f := func(keys []uint16) bool {
		c := New[int](1000)
		for i, k := range keys {
			c.Put(uint64(k), i, 50)
			if !c.Contains(uint64(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRateImprovesWithCapacity(t *testing.T) {
	// Zipf-ish access pattern: hit rate must be monotone-ish in capacity.
	run := func(capacity int64) int64 {
		c := New[int](capacity)
		rng := xrand.New(1)
		for i := 0; i < 20000; i++ {
			// Quadratic skew towards small keys.
			f := rng.Float64()
			key := uint64(f * f * 500)
			if _, ok := c.Get(key); !ok {
				c.Put(key, i, 100)
			}
		}
		return c.Stats().Hits
	}
	small, large := run(2000), run(100000)
	if large <= small {
		t.Fatalf("hits: capacity 2000 -> %d, capacity 100000 -> %d; expected improvement", small, large)
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := New[int](1 << 20)
	for k := uint64(0); k < 1000; k++ {
		c.Put(k, int(k), 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(uint64(i) % 1000)
	}
}

func BenchmarkPutEvict(b *testing.B) {
	c := New[int](64 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(uint64(i), i, 256)
	}
}

// TestUpdateKeepsRecencyAndCounters: Update replaces a resident value in
// place and charges its new size — evicting the oldest entries when that
// overflows, dropping the key when it no longer fits at all — and Peek reads
// without touching anything.
func TestUpdateKeepsRecencyAndCounters(t *testing.T) {
	c := New[string](3*EntryOverhead + 30)
	c.Put(1, "a", 10)
	c.Put(2, "b", 10)
	c.Put(3, "c", 10)
	before := c.Stats()
	if v, ok := c.Peek(2); !ok || v != "b" || c.Stats() != before {
		t.Fatalf("Peek = %q, %v; stats %+v after %+v", v, ok, c.Stats(), before)
	}
	if !c.Update(2, "B", 20) || c.Update(9, "x", 1) {
		t.Fatal("Update misreported residency")
	}
	if v, _ := c.Peek(2); v != "B" || c.Len() != 2 || c.Contains(1) {
		t.Fatalf("after growing 2: %q, resident %v; want the oldest, 1, evicted", v, c.Keys())
	}
	st := c.Stats()
	if st.Hits != before.Hits || st.Misses != before.Misses || st.Inserts != before.Inserts || st.Evictions != before.Evictions+1 {
		t.Fatalf("stats %+v after %+v, want one eviction and nothing else", st, before)
	}
	if got := c.Keys(); got[0] != 3 || got[1] != 2 {
		t.Fatalf("recency %v, want 3 then 2", got)
	}
	if !c.Update(3, "huge", c.capacity) || c.Contains(3) || c.Size() != 20+EntryOverhead {
		t.Fatalf("oversized update left %v at %d bytes", c.Keys(), c.Size())
	}
}
