package cache

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
)

// rawBackend serves every record's stored bytes from a table built up
// front, cut as storage cuts them, so reading allocates nothing the cache
// does not keep.
type rawBackend [][]byte

func (b rawBackend) Read(ids []graph.NodeID, dir graph.Direction, dst [][]byte, _ Counts) error {
	for i, id := range ids {
		dst[i] = gstore.Project(b[id], dir)
	}
	return nil
}

func (rawBackend) Heat([]graph.NodeID) {}

// encodedWebGraph returns the stored bytes of every record of a generated
// WebGraph, indexed by node id, and their ids.
func encodedWebGraph(t testing.TB, scale float64) (rawBackend, []graph.NodeID) {
	t.Helper()
	g, err := gen.Preset(gen.WebGraph, scale, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc := make(rawBackend, g.MaxNodeID())
	var ids []graph.NodeID
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		if g.Exists(id) {
			enc[id] = gstore.Encode(nil, gstore.RecordOf(g, id))
			ids = append(ids, id)
		}
	}
	return enc, ids
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// fill steps every id through c in batches, as executors do, with a
// Scratch of its own that is garbage once it returns.
func fill(t testing.TB, c *Processor, b Backend, ids []graph.NodeID) {
	t.Helper()
	var sc Scratch
	for i := 0; i < len(ids); i += 64 {
		sc.Reset()
		if _, _, err := c.Step(&sc, b, ids[i:min(i+64, len(ids))], graph.Both); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChargeCoversHeap: a processor cache filled with a WebGraph's stored
// records holds no more heap per resident entry than it charges for one —
// the record's length plus EntryOverhead — so the byte limit the capacity
// figures sweep is a real bound on memory, not a discount. It is checked on
// a cache churned past its capacity, whose slot array and key map carry the
// slack of a peak and of deletions, and on one four times the stored bytes,
// which holds most records (9,502 of the 12,000 at 31 B a record and an
// EntryOverhead of 129). An entry is a slot of the recency array, a share of
// the key map and the record's bytes, rounded up to their size class.
func TestChargeCoversHeap(t *testing.T) {
	b, ids := encodedWebGraph(t, 0.2)
	var stored int64
	for _, id := range ids {
		stored += int64(len(b[id]))
	}
	for _, capacity := range []int64{stored / 2, 4 * stored} {
		c := NewProcessor(capacity)
		before := liveHeap()
		fill(t, c, b, ids)
		after := liveHeap()
		n := c.lru.Len()
		perEntry := float64(after-before) / float64(n)
		charged := float64(c.lru.Size()) / float64(n)
		t.Logf("capacity %d B, %d resident records: %.1f B of heap per entry, charged %.1f B (%.1f B stored + %d)", capacity, n, perEntry, charged, charged-EntryOverhead, EntryOverhead)
		if perEntry > charged {
			t.Errorf("capacity %d B: a resident entry holds %.1f B of heap but is charged %.1f B: raise EntryOverhead", capacity, perEntry, charged)
		}
		runtime.KeepAlive(c)
	}
	runtime.KeepAlive(b)
}
