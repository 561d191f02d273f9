package kvstore

import (
	"testing"

	"repro/internal/topology"
)

// otherSlots returns active slots outside key's current placement — a
// migration target that actually changes where the key lives.
func otherSlots(t *testing.T, s *Store, key uint64, n int) []int {
	t.Helper()
	var arr [topology.MaxReplicas]int
	cur := s.ReplicasFor(key, arr[:0])
	in := func(slot int) bool {
		for _, c := range cur {
			if c == slot {
				return true
			}
		}
		return false
	}
	var out []int
	for slot := 0; slot < s.NumServers() && len(out) < n; slot++ {
		if !in(slot) {
			out = append(out, slot)
		}
	}
	if len(out) < n {
		t.Fatalf("no %d slots outside placement %v", n, cur)
	}
	return out
}

func TestMoveValidation(t *testing.T) {
	s := mustReplicated(t, 4, 2)
	loadKeys(s, 10)
	if _, err := s.Move(1, nil); err == nil {
		t.Fatal("empty destination accepted")
	}
	if _, err := s.Move(1, make([]int, topology.MaxReplicas+1)); err == nil {
		t.Fatal("oversized destination accepted")
	}
	if _, err := s.Move(1, []int{99}); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, err := s.FailServer(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Move(1, []int{3}); err == nil {
		t.Fatal("down slot accepted as a migration target")
	}
	if _, err := s.Move(1<<40, []int{0}); err == nil {
		t.Fatal("missing key moved")
	}
	s.Delete(5)
	if _, err := s.Move(5, []int{0}); err == nil {
		t.Fatal("tombstoned key moved")
	}
}

// TestMoveRelocatesAndPins: a move lands the newest copy on exactly the
// destination slots, garbage-collects the old copies, pins placement
// there, and keeps the key readable throughout.
func TestMoveRelocatesAndPins(t *testing.T) {
	s := mustReplicated(t, 4, 2)
	loadKeys(s, 20)
	const key = 7
	dst := otherSlots(t, s, key, 2)
	sz := s.SizeOf(key)
	if sz <= 0 {
		t.Fatalf("SizeOf(%d) = %d before move", key, sz)
	}
	n, err := s.Move(key, dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(sz) {
		t.Fatalf("moved %d bytes, SizeOf said %d", n, sz)
	}
	var arr [topology.MaxReplicas]int
	pl := s.ReplicasFor(key, arr[:0])
	if len(pl) != len(dst) || pl[0] != dst[0] || pl[1] != dst[1] {
		t.Fatalf("placement %v after move to %v", pl, dst)
	}
	if v, ok := s.Get(key); !ok || len(v) != 3 || v[0] != byte(key) {
		t.Fatalf("key unreadable after move: %v %v", v, ok)
	}
	// Copies exist only on the destination slots.
	for slot := 0; slot < s.NumServers(); slot++ {
		_, has := s.servers[slot].lookup(key)
		want := slot == dst[0] || slot == dst[1]
		if has != want {
			t.Fatalf("slot %d holds copy=%v, want %v", slot, has, want)
		}
	}
	// The override is visible, counted, and returned by copy.
	pin := s.OverrideFor(key)
	if len(pin) != 2 || pin[0] != dst[0] {
		t.Fatalf("OverrideFor = %v", pin)
	}
	pin[0] = 99
	if s.OverrideFor(key)[0] != dst[0] {
		t.Fatal("OverrideFor exposed internal state")
	}
	ms := s.Moves()
	if ms.Moves != 1 || ms.MovedBytes != int64(sz) || ms.Overrides != 1 {
		t.Fatalf("MoveStats %+v", ms)
	}
	if s.OverrideFor(uint64(1<<40)) != nil {
		t.Fatal("override invented for unpinned key")
	}
	if s.SizeOf(key) != sz {
		t.Fatalf("SizeOf changed across the move: %d vs %d", s.SizeOf(key), sz)
	}
	if s.SizeOf(1<<40) != 0 {
		t.Fatal("SizeOf invented a missing key")
	}
}

// TestMoveThenWriteAndDelete: writes after a move land on the pinned
// placement with newer versions, and a delete tombstones the moved key so
// repair cannot resurrect it.
func TestMoveThenWriteAndDelete(t *testing.T) {
	s := mustReplicated(t, 4, 2)
	loadKeys(s, 10)
	const key = 3
	dst := otherSlots(t, s, key, 2)
	if _, err := s.Move(key, dst); err != nil {
		t.Fatal(err)
	}
	ver := s.Put(key, []byte{9, 9, 9})
	if ver == 0 {
		t.Fatal("post-move write returned version 0")
	}
	for _, slot := range dst {
		e, ok := s.servers[slot].lookup(key)
		if !ok || e.ver != ver {
			t.Fatalf("slot %d missed the post-move write: %+v %v", slot, e, ok)
		}
	}
	if !s.Delete(key) {
		t.Fatal("delete after move failed")
	}
	s.Repair()
	if _, ok := s.Get(key); ok {
		t.Fatal("deleted key resurrected past its tombstone")
	}
}

// TestOverrideFallback: when every pinned slot drains out of the active
// set, placement falls back to rendezvous and the repair pass re-homes
// the data — the key stays readable with no override slot alive.
func TestOverrideFallback(t *testing.T) {
	s := mustReplicated(t, 4, 2)
	loadKeys(s, 10)
	const key = 2
	dst := otherSlots(t, s, key, 2)
	if _, err := s.Move(key, dst); err != nil {
		t.Fatal(err)
	}
	for _, slot := range dst {
		if _, err := s.DrainServer(slot); err != nil {
			t.Fatal(err)
		}
	}
	var arr [topology.MaxReplicas]int
	for _, slot := range s.ReplicasFor(key, arr[:0]) {
		if slot == dst[0] || slot == dst[1] {
			t.Fatalf("placement %v still uses a drained pinned slot", s.ReplicasFor(key, nil))
		}
	}
	if v, ok := s.Get(key); !ok || v[0] != byte(key) {
		t.Fatalf("key lost when its pinned slots drained: %v %v", v, ok)
	}
}

func TestNumActive(t *testing.T) {
	s := mustReplicated(t, 4, 2)
	if s.View().NumActive() != 4 {
		t.Fatalf("NumActive = %d, want 4", s.View().NumActive())
	}
	if _, err := s.FailServer(1); err != nil {
		t.Fatal(err)
	}
	if s.View().NumActive() != 3 {
		t.Fatalf("NumActive = %d after one failure, want 3", s.View().NumActive())
	}
}
