package placement

import (
	"reflect"
	"testing"
)

// stubEnv is a deployment surface the tests control exactly; a key's
// replicas lead with its primary.
type stubEnv struct {
	replicas map[uint64][]int
	sizes    map[uint64]int
	near     map[int]int
	rf       int
}

func (e *stubEnv) Replicas(key uint64, dst []int) []int {
	return append(dst, e.replicas[key]...)
}

func (e *stubEnv) SizeOf(key uint64) int { return e.sizes[key] }

func (e *stubEnv) NearSlot(proc int) int {
	if s, ok := e.near[proc]; ok {
		return s
	}
	return -1
}

func (e *stubEnv) ReplicaTarget() int { return e.rf }

// env returns a two-slot, replica-factor-1 tier where processor p's near
// slot is p%2 and every listed key lives on slot 1 with size 100.
func env(keys ...uint64) *stubEnv {
	e := &stubEnv{
		replicas: make(map[uint64][]int),
		sizes:    make(map[uint64]int),
		near:     map[int]int{0: 0, 1: 1, 2: 0, 3: 1},
		rf:       1,
	}
	for _, k := range keys {
		e.replicas[k] = []int{1}
		e.sizes[k] = 100
	}
	return e
}

func TestHeatRecordAndDominant(t *testing.T) {
	h := NewHeat()
	if p, r, tot := h.Dominant(7); p != -1 || r != 0 || tot != 0 {
		t.Fatalf("empty Dominant = (%d,%d,%d), want (-1,0,0)", p, r, tot)
	}
	h.Record(7, 2, 5)
	h.Record(7, 0, 3)
	h.Record(7, 2, 1)
	h.Record(7, 1, 0)  // no-op
	h.Record(7, 1, -4) // no-op
	if len(h.keys) != 1 {
		t.Fatalf("%d keys with heat, want 1", len(h.keys))
	}
	p, r, tot := h.Dominant(7)
	if p != 2 || r != 6 || tot != 9 {
		t.Fatalf("Dominant = (%d,%d,%d), want (2,6,9)", p, r, tot)
	}
}

func TestHeatDominantTieLowestProc(t *testing.T) {
	h := NewHeat()
	h.Record(1, 3, 4)
	h.Record(1, 0, 4)
	h.Record(1, 2, 4)
	if p, _, _ := h.Dominant(1); p != 0 {
		t.Fatalf("tie broken toward proc %d, want 0", p)
	}
}

func TestHeatDecay(t *testing.T) {
	h := NewHeat()
	h.Record(1, 0, 8)
	h.Record(1, 1, 1) // cools to zero on first decay
	h.Record(2, 0, 1) // whole record evicted on first decay
	h.Decay()
	if len(h.keys) != 1 {
		t.Fatalf("%d keys with heat after decay, want 1", len(h.keys))
	}
	if p, r, tot := h.Dominant(1); p != 0 || r != 4 || tot != 4 {
		t.Fatalf("Dominant after decay = (%d,%d,%d), want (0,4,4)", p, r, tot)
	}
	h.Decay()
	h.Decay()
	h.Decay() // 8 halves to zero only on the fourth cycle
	if len(h.keys) != 0 {
		t.Fatalf("heat survived full decay: %d keys", len(h.keys))
	}
}

func TestPlanMovesHotKeyTowardReader(t *testing.T) {
	e := env(42)
	p := New(Config{MinReads: 4})
	h := NewHeat()
	h.Record(42, 0, 10) // dominant reader 0, near slot 0; key lives on slot 1
	moves := p.Plan(h, e)
	if len(moves) != 1 {
		t.Fatalf("planned %d moves, want 1", len(moves))
	}
	m := moves[0]
	if m.Key != 42 || m.From != 1 || m.Reader != 0 || m.Reads != 10 || m.Bytes != 100 {
		t.Fatalf("unexpected move %+v", m)
	}
	if !reflect.DeepEqual(m.To, []int{0}) {
		t.Fatalf("move target %v, want [0]", m.To)
	}
	if c := p.Counters(); c.Cycles != 1 || c.Planned != 1 || c.SkippedCold != 0 {
		t.Fatalf("counters %+v", c)
	}
}

func TestPlanHysteresis(t *testing.T) {
	e := env(1, 2, 3)
	p := New(Config{MinReads: 8})
	h := NewHeat()
	h.Record(1, 0, 7) // below the heat floor
	h.Record(2, 0, 5) // dominant reader owns 5/10 < strict majority? 0.5*10=5, 5>=5 passes
	h.Record(2, 1, 5)
	h.Record(3, 0, 3) // no reader reaches half of 9 reads
	h.Record(3, 1, 3)
	h.Record(3, 2, 3)
	moves := p.Plan(h, e)
	// Key 2's tie-broken dominant reader (proc 0) owns exactly half the
	// reads — the >= boundary of MinDominance — so it moves; 1 and 3 don't.
	if len(moves) != 1 || moves[0].Key != 2 {
		t.Fatalf("moves = %+v, want exactly key 2", moves)
	}
	if c := p.Counters(); c.SkippedCold != 2 {
		t.Fatalf("SkippedCold = %d, want 2", c.SkippedCold)
	}
}

func TestPlanSkipsSettledAndVanishedKeys(t *testing.T) {
	e := env(1, 2, 3)
	e.replicas[1] = []int{0} // already at its reader's near slot
	e.sizes[2] = 0           // deleted since the heat accrued
	delete(e.replicas, 3)
	p := New(Config{MinReads: 1})
	h := NewHeat()
	for _, k := range []uint64{1, 2, 3} {
		h.Record(k, 0, 10)
	}
	h.Record(4, 5, 10) // reader 5 has no near slot
	if moves := p.Plan(h, e); len(moves) != 0 {
		t.Fatalf("planned %+v, want none", moves)
	}
}

func TestPlanBudgetHottestFirst(t *testing.T) {
	e := env(1, 2, 3, 4)
	e.sizes[2] = 150 // too big once key 1 has been picked
	p := New(Config{MinReads: 1, BudgetBytes: 220})
	h := NewHeat()
	h.Record(1, 0, 30)
	h.Record(2, 0, 20)
	h.Record(3, 0, 10)
	h.Record(4, 0, 5)
	moves := p.Plan(h, e)
	// Hottest first: 1 (100) fits, 2 (150) exceeds the 120 remaining, 3
	// (100) fits the remainder exactly, and with the budget spent to zero
	// key 4 must be rejected, not waved through.
	var keys []uint64
	for _, m := range moves {
		keys = append(keys, m.Key)
	}
	if !reflect.DeepEqual(keys, []uint64{1, 3}) {
		t.Fatalf("picked %v, want [1 3]", keys)
	}
	if c := p.Counters(); c.SkippedBudget != 2 || c.Planned != 2 {
		t.Fatalf("counters %+v, want SkippedBudget 2 Planned 2", c)
	}
}

func TestPlanDeterministicTieOrder(t *testing.T) {
	e := env(9, 5, 7)
	p := New(Config{MinReads: 1})
	h := NewHeat()
	for _, k := range []uint64{9, 5, 7} {
		h.Record(k, 0, 10)
	}
	moves := p.Plan(h, e)
	var keys []uint64
	for _, m := range moves {
		keys = append(keys, m.Key)
	}
	if !reflect.DeepEqual(keys, []uint64{5, 7, 9}) {
		t.Fatalf("equal-heat order %v, want ascending keys", keys)
	}
}

func TestPlanKeepsReplicationFactor(t *testing.T) {
	e := env(1)
	e.rf = 2
	e.replicas[1] = []int{1, 0}
	e.near[0] = 2
	p := New(Config{MinReads: 1})
	h := NewHeat()
	h.Record(1, 0, 10)
	moves := p.Plan(h, e)
	if len(moves) != 1 {
		t.Fatalf("planned %d moves, want 1", len(moves))
	}
	// The near slot becomes primary; one existing replica backfills so the
	// tier keeps two copies.
	if !reflect.DeepEqual(moves[0].To, []int{2, 1}) {
		t.Fatalf("target placement %v, want [2 1]", moves[0].To)
	}
}

func TestExecutedCountersAndLog(t *testing.T) {
	p := New(Config{LogSize: 2})
	for i := 0; i < 3; i++ {
		p.Executed(Move{Key: uint64(i), To: []int{0}, From: 1, Bytes: 10}, true)
	}
	p.Executed(Move{Key: 99, Bytes: 1000}, false) // failed moves leave no trace
	c := p.Counters()
	if c.Moved != 3 || c.MovedBytes != 30 {
		t.Fatalf("counters %+v, want Moved 3 MovedBytes 30", c)
	}
	log := p.Log()
	if len(log) != 2 || log[0].Key != 1 || log[1].Key != 2 {
		t.Fatalf("log %+v, want keys [1 2]", log)
	}
	log[0].Key = 77 // the returned slice is a copy
	if p.Log()[0].Key != 1 {
		t.Fatal("Log() exposed internal state")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MinReads != 16 || c.MinDominance != 0.5 || c.LogSize != 32 {
		t.Fatalf("defaults %+v", c)
	}
	if New(Config{BudgetBytes: 512}).Counters().BudgetBytes != 512 {
		t.Fatal("BudgetBytes not surfaced in counters")
	}
}
