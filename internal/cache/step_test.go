package cache

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/gstore"
)

// mapBackend serves records from a map, cut as storage cuts them, and logs
// what the step asked of it. during, when set, runs inside Read: what
// happens while a fetch is out. raw, when set, is served for its ids as it
// is, uncut.
type mapBackend struct {
	recs   map[graph.NodeID]gstore.Record
	raw    map[graph.NodeID][]byte
	err    error
	during func()
	reads  [][]graph.NodeID
	dirs   []graph.Direction
	probes []Counts
	heated []graph.NodeID
}

func (b *mapBackend) Read(ids []graph.NodeID, dir graph.Direction, dst [][]byte, probed Counts) error {
	b.reads = append(b.reads, slices.Clone(ids))
	b.dirs = append(b.dirs, dir)
	b.probes = append(b.probes, probed)
	if b.during != nil {
		b.during()
	}
	if b.err != nil {
		return b.err
	}
	for i, id := range ids {
		dst[i] = nil
		if v, ok := b.raw[id]; ok {
			dst[i] = v
		} else if rec, ok := b.recs[id]; ok {
			dst[i] = gstore.Project(gstore.Encode(nil, &rec), dir)
		}
	}
	return nil
}

// size is what the cache charges for id's record besides EntryOverhead: its
// stored length.
func (b *mapBackend) size(id graph.NodeID) int64 {
	r := b.recs[id]
	return int64(len(gstore.Encode(nil, &r)))
}

func (b *mapBackend) Heat(ids []graph.NodeID) { b.heated = append(b.heated, ids...) }

// stored holds records 1..n, record i with i out-edges and one in-edge,
// from node 100+i.
func stored(n int) *mapBackend {
	b := &mapBackend{recs: make(map[graph.NodeID]gstore.Record)}
	for i := 1; i <= n; i++ {
		r := gstore.Record{Node: graph.NodeID(i), In: []graph.Edge{{To: graph.NodeID(100 + i)}}}
		for j := 0; j < i; j++ {
			r.Out = append(r.Out, graph.Edge{To: graph.NodeID(j)})
		}
		b.recs[graph.NodeID(i)] = r
	}
	return b
}

// TestStepProbesThenReadsMisses: one read per step carrying only the misses,
// results aligned with the ids, dangling ids neither cached nor heated, and
// every record charged its stored length.
func TestStepProbesThenReadsMisses(t *testing.T) {
	b := stored(3)
	c := NewProcessor(1 << 20)
	var sc Scratch
	if _, n, err := c.Step(&sc, b, []graph.NodeID{1}, graph.Both); err != nil || n != (Counts{Misses: 1, Inserts: 1}) {
		t.Fatalf("cold step: counts %+v, err %v", n, err)
	}
	recs, n, err := c.Step(&sc, b, []graph.NodeID{2, 1, 9, 3}, graph.Both)
	if err != nil {
		t.Fatal(err)
	}
	if n != (Counts{Hits: 1, Misses: 3, Inserts: 2}) {
		t.Fatalf("counts = %+v, want 1 hit, 3 misses, 2 inserts", n)
	}
	for i, want := range []graph.NodeID{2, 1, 0, 3} {
		if recs[i].OK != (want != 0) || recs[i].Record.Node != want {
			t.Fatalf("recs[%d] = %+v, want node %d", i, recs[i], want)
		}
	}
	if got := b.reads[1]; !slices.Equal(got, []graph.NodeID{2, 9, 3}) || b.probes[1] != (Counts{Hits: 1, Misses: 3}) {
		t.Fatalf("second read asked for %v after probe %+v", got, b.probes[1])
	}
	if !slices.Equal(b.heated, []graph.NodeID{1, 2, 3}) {
		t.Fatalf("heated %v, want the stored records read: 1, 2, 3", b.heated)
	}
	var want int64
	for id := graph.NodeID(1); id <= 3; id++ {
		want += b.size(id) + EntryOverhead
	}
	if st := c.Stats(); st.CurrentBytes != want || st.Inserts != 3 || st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("stats = %+v, want %d bytes over 3 inserts, 1 hit, 4 misses", st, want)
	}
	if _, n, _ := c.Step(&sc, b, []graph.NodeID{3, 2}, graph.Both); n != (Counts{Hits: 2}) || len(b.reads) != 2 {
		t.Fatalf("all-hit step: counts %+v after %d reads, want 2 hits and no read", n, len(b.reads))
	}
}

// TestContainsTouchesNothing: residency is visible without a hit, a miss or
// a move to the front, and a missing cache holds nothing.
func TestContainsTouchesNothing(t *testing.T) {
	b := stored(2)
	c := NewProcessor(1 << 20)
	var sc Scratch
	if _, _, err := c.Step(&sc, b, []graph.NodeID{1, 2}, graph.Both); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if !c.Contains(1) || !c.Contains(2) || c.Contains(3) {
		t.Fatalf("resident %v, want 1 and 2", c.lru.Keys())
	}
	if c.Stats() != before || !slices.Equal(c.lru.Keys(), []uint64{2, 1}) {
		t.Fatalf("stats %+v after %+v, recency %v; want both untouched", c.Stats(), before, c.lru.Keys())
	}
	if (*Processor)(nil).Contains(1) {
		t.Fatal("a missing cache holds a record")
	}
}

// TestStepReadErrorCachesNothing: a failed read fails the step and leaves
// neither cache entries nor heat behind.
func TestStepReadErrorCachesNothing(t *testing.T) {
	b := stored(2)
	b.err = errors.New("shard down")
	c := NewProcessor(1 << 20)
	var sc Scratch
	if _, n, err := c.Step(&sc, b, []graph.NodeID{1, 2}, graph.Both); !errors.Is(err, b.err) || n != (Counts{Misses: 2}) {
		t.Fatalf("counts %+v, err %v; want 2 misses and the read's error", n, err)
	}
	if st := c.Stats(); st.Inserts != 0 || len(b.heated) != 0 {
		t.Fatalf("failed step cached %d records, heated %v", st.Inserts, b.heated)
	}
}

// TestStepSkipsRecordsEvictedMidRead: a record evicted while the read that
// fetched it was out answers the step but is not cached; the rest are.
func TestStepSkipsRecordsEvictedMidRead(t *testing.T) {
	b := stored(3)
	c := NewProcessor(1 << 20)
	b.during = func() { c.Evict(2) }
	var sc Scratch
	recs, n, err := c.Step(&sc, b, []graph.NodeID{1, 2, 3}, graph.Both)
	if err != nil || !recs[1].OK || n.Inserts != 3 {
		t.Fatalf("recs %+v, counts %+v, err %v", recs, n, err)
	}
	if c.lru.Contains(2) || !c.lru.Contains(1) || !c.lru.Contains(3) {
		t.Fatalf("resident %v, want 1 and 3 only", c.lru.Keys())
	}
}

// TestStepWithoutCache: a nil Processor probes nothing and caches nothing,
// but reads and heats like any other.
func TestStepWithoutCache(t *testing.T) {
	b := stored(2)
	var c *Processor
	var sc Scratch
	for range 2 {
		recs, n, err := c.Step(&sc, b, []graph.NodeID{2, 7, 1}, graph.Both)
		if err != nil || n != (Counts{Misses: 3}) || !recs[0].OK || recs[1].OK || !recs[2].OK {
			t.Fatalf("recs %+v, counts %+v, err %v", recs, n, err)
		}
	}
	if len(b.reads) != 2 || !slices.Equal(b.heated, []graph.NodeID{2, 1, 2, 1}) {
		t.Fatalf("%d reads, heated %v", len(b.reads), b.heated)
	}
	if _, n, _ := c.Step(&sc, b, nil, graph.Both); n != (Counts{}) || len(b.reads) != 2 {
		t.Fatal("an empty step read storage")
	}
	c.Evict(1)
	if c.Stats() != (Stats{}) {
		t.Fatal("a nil cache reports counters")
	}
}

// TestStepConcurrentExecutors: executors sharing one processor cache under
// evictions (run under -race), some reading out-edges only and some whole
// records, keep its accounting consistent.
func TestStepConcurrentExecutors(t *testing.T) {
	b := stored(64)
	c := NewProcessor(4 << 10)
	var wg sync.WaitGroup
	var mu sync.Mutex
	hits := 0
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := &mapBackend{recs: b.recs}
			var sc Scratch
			for i := range 200 {
				ids := []graph.NodeID{graph.NodeID(1 + (i*7+w)%64), graph.NodeID(1 + (i*3)%64)}
				dir := graph.Both // half the steps read out-edges only: prefixes and whole records replace each other
				if (i+w)%2 == 0 {
					dir = graph.Out
				}
				_, n, err := c.Step(&sc, own, ids, dir)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				hits += n.Hits
				mu.Unlock()
				if i%16 == 0 {
					c.Evict(uint64(ids[0]))
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits != int64(hits) || st.Hits+st.Misses != 4*200*2 || st.CurrentBytes > st.CapacityBytes {
		t.Fatalf("stats %+v after %d hits counted by the steps", st, hits)
	}
}

// TestEvictedSince: a fetch only loses the records evicted while it was out;
// once more keys were evicted than the ring remembers, all of them.
func TestEvictedSince(t *testing.T) {
	p := NewProcessor(1 << 10)
	p.Evict(1, 2, 3)
	seq := p.evictSeq
	for _, key := range []uint64{1, 2, 3, 7} {
		if p.evictedSince(seq, key) {
			t.Fatalf("key %d counts as evicted since a point nothing was evicted after", key)
		}
	}
	p.Evict(7, 8)
	for key, want := range map[uint64]bool{1: false, 3: false, 7: true, 8: true, 9: false} {
		if got := p.evictedSince(seq, key); got != want {
			t.Fatalf("evictedSince(%d) = %v after evicting 7 and 8, want %v", key, got, want)
		}
	}
	flood := make([]uint64, len(p.evicted)-1)
	for i := range flood {
		flood[i] = 100 + uint64(i)
	}
	p.Evict(flood...)
	if !p.evictedSince(seq, 9) || p.evictedSince(p.evictSeq, 100) {
		t.Fatal("past the ring every key must count as evicted, and none since the newest eviction")
	}
}

// TestApplyUpdatesInPlace: an edit stream replaces a resident record with
// the edited one — recency and the hit, miss and insert counters untouched,
// the new size charged — and remembers the key like an eviction; a stream
// that does not apply evicts; a key not resident is only remembered.
func TestApplyUpdatesInPlace(t *testing.T) {
	b := stored(3)
	c := NewProcessor(1 << 20)
	var sc Scratch
	if _, _, err := c.Step(&sc, b, []graph.NodeID{2, 1}, graph.Both); err != nil {
		t.Fatal(err)
	}
	pre := b.recs[2]
	post := pre
	post.NodeLabel = 5
	post.Out = append(post.Out[:len(post.Out):len(post.Out)], graph.Edge{To: 9, Label: 1})
	before, seq := c.Stats(), c.evictSeq
	c.Apply(2, gstore.AppendEdits(nil, &pre, &post))
	got, _ := c.lru.Peek(2)
	want := gstore.Encode(nil, &post)
	st := c.Stats()
	if !slices.Equal(got, want) {
		t.Fatalf("resident record %x, want %x", got, want)
	}
	grown := int64(len(want) - len(gstore.Encode(nil, &pre)))
	if st.Hits != before.Hits || st.Misses != before.Misses || st.Inserts != before.Inserts || st.CurrentBytes != before.CurrentBytes+grown {
		t.Fatalf("stats %+v after %+v, want only %d more bytes", st, before, grown)
	}
	if !slices.Equal(c.lru.Keys(), []uint64{1, 2}) || !c.evictedSince(seq, 2) {
		t.Fatalf("recency %v, remembered %v; want untouched recency and 2 remembered", c.lru.Keys(), c.evictedSince(seq, 2))
	}
	c.Apply(7, []byte{0})
	if c.lru.Contains(7) || !c.evictedSince(seq, 7) {
		t.Fatal("an update of a record not resident cached it or was forgotten")
	}
	c.Apply(1, nil)
	if c.lru.Contains(1) || !c.lru.Contains(2) {
		t.Fatalf("resident %v after an empty stream for 1, want 2 only", c.lru.Keys())
	}
	(*Processor)(nil).Apply(1, []byte{0})
}

// TestStepKeepsRecordsUpdatedMidRead: a fetch out across the update of a
// record answers its step with what it read but caches nothing — not where
// the record was absent, and not over the edited copy a second executor
// cached and the update then edited.
func TestStepKeepsRecordsUpdatedMidRead(t *testing.T) {
	b := stored(3)
	c := NewProcessor(1 << 20)
	pre := b.recs[2]
	post := pre
	post.NodeLabel = 4
	edits := gstore.AppendEdits(nil, &pre, &post)
	var sc Scratch
	b.during = func() { c.Apply(3, edits) }
	if _, _, err := c.Step(&sc, b, []graph.NodeID{3}, graph.Both); err != nil {
		t.Fatal(err)
	}
	if c.lru.Contains(3) {
		t.Fatal("a record fetched across its update was cached")
	}
	b.during = func() {
		c.mu.Lock()
		enc := gstore.Encode(nil, &pre)
		c.lru.Put(2, enc, int64(len(enc))) // the other executor's fetch
		c.mu.Unlock()
		c.Apply(2, edits)
	}
	recs, _, err := c.Step(&sc, b, []graph.NodeID{2}, graph.Both)
	if err != nil || recs[0].Record.NodeLabel != pre.NodeLabel {
		t.Fatalf("step = %+v, %v; want the record it read", recs, err)
	}
	if raw, _ := c.lru.Peek(2); !slices.Equal(raw, gstore.Encode(nil, &post)) {
		t.Fatalf("resident record 2 is %x, want the edited one", raw)
	}
}

// TestArenaOutlivesSteps: the records of a step stay as stored through the
// steps after it until the Scratch is Reset — an executor's BFS and pattern
// join keep earlier levels' records while it fetches the next.
func TestArenaOutlivesSteps(t *testing.T) {
	b, ids := encodedWebGraph(t, 0.02)
	c := NewProcessor(1 << 20)
	var sc Scratch
	batches := [][]graph.NodeID{ids[:40], ids[40:90], ids[90:150]}
	fill(t, c, b, batches[0]) // the first batch hits, the others miss
	first, _, err := c.Step(&sc, b, batches[0], graph.Both)
	if err != nil {
		t.Fatal(err)
	}
	first = slices.Clone(first) // the result buffer itself is per step
	for _, ids := range batches[1:] {
		if _, _, err := c.Step(&sc, b, ids, graph.Both); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range batches[0] {
		want, err := gstore.Decode(id, b[id])
		if err != nil {
			t.Fatal(err)
		}
		got := first[i].Record
		if !first[i].OK || got.Node != id || got.NodeLabel != want.NodeLabel || !slices.Equal(got.Out, want.Out) || !slices.Equal(got.In, want.In) {
			t.Fatalf("record %d after two more steps = %+v, want %+v", id, got, want)
		}
	}
}

// TestStepHitAllocatesNothing: a warm, all-hit step decodes into an arena
// already grown to the batch, so it allocates nothing, whichever lists it
// reads.
func TestStepHitAllocatesNothing(t *testing.T) {
	enc, ids := encodedWebGraph(t, 0.02)
	ids = ids[:64]
	var b Backend = enc // converted once: a slice in an interface is boxed
	c := NewProcessor(1 << 20)
	var sc Scratch
	fill(t, c, b, ids)
	for _, dir := range []graph.Direction{graph.Both, graph.Out} {
		step := func() {
			sc.Reset()
			if _, n, err := c.Step(&sc, b, ids, dir); err != nil || n.Hits != len(ids) {
				t.Fatalf("%v: counts %+v, err %v; want %d hits", dir, n, err, len(ids))
			}
		}
		step() // grows the arena
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Fatalf("a warm all-hit %v step allocates %.1f times, want 0", dir, allocs)
		}
	}
}

// BenchmarkStepHit is the cost of a hit now that the cache holds stored
// bytes: a warm all-hit step of 64 whole WebGraph records, decoded into the
// arena, reported per record — in full for a step that reads both lists,
// as far as the out-list for one that reads only out-edges.
func BenchmarkStepHit(b *testing.B) {
	enc, ids := encodedWebGraph(b, 0.02)
	ids = ids[:64]
	var be Backend = enc
	for _, dir := range []graph.Direction{graph.Both, graph.Out} {
		b.Run(dir.String(), func(b *testing.B) {
			c := NewProcessor(1 << 20)
			var sc Scratch
			fill(b, c, be, ids)
			if _, _, err := c.Step(&sc, be, ids, dir); err != nil { // grows sc's arena
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				sc.Reset()
				if _, _, err := c.Step(&sc, be, ids, dir); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/record")
		})
	}
}

// TestStepOutOnlyCachesPrefixes: a step that reads only out-edges reads and
// caches out-prefixes, charged their length, and decodes no in-list. A step
// that reads in-edges counts such an entry a miss, reads the whole record
// and caches it in the prefix's place; an out-only step then hits the whole
// entry and still stops at its out-list.
func TestStepOutOnlyCachesPrefixes(t *testing.T) {
	b := stored(3)
	c := NewProcessor(1 << 20)
	var sc Scratch
	recs, n, err := c.Step(&sc, b, []graph.NodeID{2, 3}, graph.Out)
	if err != nil || n != (Counts{Misses: 2, Inserts: 2}) || b.dirs[0] != graph.Out {
		t.Fatalf("cold out-only step: counts %+v, read %v, err %v", n, b.dirs, err)
	}
	for i, id := range []graph.NodeID{2, 3} {
		want := b.recs[id]
		if got := recs[i].Record; !recs[i].OK || !slices.Equal(got.Out, want.Out) || got.In != nil {
			t.Fatalf("record %d = %+v, want its out-list and no in-list", id, got)
		}
	}
	whole := func(id graph.NodeID) []byte { r := b.recs[id]; return gstore.Encode(nil, &r) }
	prefix := int64(len(gstore.Project(whole(2), graph.Out)) + len(gstore.Project(whole(3), graph.Out)))
	if st := c.Stats(); st.CurrentBytes != prefix+2*EntryOverhead {
		t.Fatalf("%d bytes resident, want the two prefixes' %d and their overhead", st.CurrentBytes, prefix)
	}

	recs, n, err = c.Step(&sc, b, []graph.NodeID{3, 2}, graph.In)
	if err != nil || n != (Counts{Misses: 2, Inserts: 2}) || b.dirs[1] != graph.In {
		t.Fatalf("in-reading step over prefixes: counts %+v, read %v, err %v", n, b.dirs, err)
	}
	if got := recs[0].Record; !slices.Equal(got.In, b.recs[3].In) {
		t.Fatalf("record 3 = %+v, want its in-list", got)
	}
	for _, id := range []graph.NodeID{2, 3} {
		if raw, _ := c.lru.Peek(uint64(id)); !slices.Equal(raw, whole(id)) {
			t.Fatalf("resident %d = %x, want the whole record %x", id, raw, whole(id))
		}
	}
	if st := c.Stats(); st.Misses != 4 || st.Hits != 0 || st.Evictions != 0 || c.lru.Len() != 2 {
		t.Fatalf("stats %+v, %d entries; want 4 misses, the prefixes replaced", st, c.lru.Len())
	}

	recs, n, err = c.Step(&sc, b, []graph.NodeID{2}, graph.Out)
	if err != nil || n != (Counts{Hits: 1}) || recs[0].Record.In != nil || !slices.Equal(recs[0].Record.Out, b.recs[2].Out) {
		t.Fatalf("out-only hit on a whole record = %+v, counts %+v, err %v", recs[0], n, err)
	}
	if _, n, _ := c.Step(&sc, b, []graph.NodeID{2, 3}, graph.Both); n != (Counts{Hits: 2}) {
		t.Fatalf("whole entries read whole: counts %+v, want 2 hits", n)
	}
}

// TestStepOutOnlyRefusesWholeCorruptMiss: storage ships whole a value whose
// in-list does not walk, and an out-only step decodes a value it fetched
// whole strictly: it refuses it and caches nothing, though the out-list it
// reads is intact.
func TestStepOutOnlyRefusesWholeCorruptMiss(t *testing.T) {
	b := stored(3)
	r := b.recs[2]
	enc := gstore.Encode(nil, &r)
	b.raw = map[graph.NodeID][]byte{2: enc[:len(enc)-1]} // its one in-edge cut off
	c := NewProcessor(1 << 20)
	var sc Scratch
	if _, _, err := c.Step(&sc, b, []graph.NodeID{1, 2}, graph.Out); !errors.Is(err, gstore.ErrCorrupt) {
		t.Fatalf("step over a record with a truncated in-list: %v, want it refused", err)
	}
	if st := c.Stats(); st.Inserts != 0 || c.lru.Len() != 0 || len(b.heated) != 0 {
		t.Fatalf("refused step left %d entries, stats %+v, heat %v", c.lru.Len(), st, b.heated)
	}
}

// TestApplyEditsAPrefix: an edit stream applied to a cached out-prefix
// takes its label and out-edge edits, skips its in-edge ones, and leaves a
// prefix — here the one storage would ship of the edited record — charged
// its length.
func TestApplyEditsAPrefix(t *testing.T) {
	b := stored(3)
	c := NewProcessor(1 << 20)
	var sc Scratch
	if _, _, err := c.Step(&sc, b, []graph.NodeID{2}, graph.Out); err != nil {
		t.Fatal(err)
	}
	pre := b.recs[2]
	post := pre
	post.NodeLabel = 6
	post.Out = append(post.Out[:len(post.Out):len(post.Out)], graph.Edge{To: 9})
	post.In = nil
	c.Apply(2, gstore.AppendEdits(nil, &pre, &post))
	got, _ := c.lru.Peek(2)
	want := gstore.Project(gstore.Encode(nil, &post), graph.Out)
	if !slices.Equal(got, want) || !gstore.IsPrefix(got) {
		t.Fatalf("resident prefix %x after the edits, want %x", got, want)
	}
	if st := c.Stats(); st.CurrentBytes != int64(len(want))+EntryOverhead {
		t.Fatalf("%d bytes charged, want the edited prefix's %d", st.CurrentBytes, len(want))
	}
}
