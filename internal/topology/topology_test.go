package topology

import (
	"sync"
	"testing"
)

func TestStaticView(t *testing.T) {
	v := Static(3)
	if v.Epoch != 1 || v.Slots() != 3 || v.NumActive() != 3 {
		t.Fatalf("Static(3) = %+v", v)
	}
	for s := 0; s < 3; s++ {
		if !v.IsActive(s) {
			t.Fatalf("slot %d of Static(3) is %s", s, v.Status(s))
		}
	}
	if v.IsActive(3) || v.Status(99) != Left {
		t.Fatal("out-of-range slots must read as Left")
	}
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker(2, nil)
	if e := tr.Epoch(); e != 1 {
		t.Fatalf("initial epoch = %d", e)
	}

	slot, v := tr.Join("10.0.0.7:7101")
	if slot != 2 || v.Epoch != 2 || !v.IsActive(2) {
		t.Fatalf("join: slot=%d view=%+v", slot, v)
	}
	if got := tr.Lookup("10.0.0.7:7101"); got != 2 {
		t.Fatalf("Lookup = %d", got)
	}

	v, err := tr.Drain(0)
	if err != nil || v.Status(0) != Draining || v.Epoch != 3 {
		t.Fatalf("drain: %v %+v", err, v)
	}
	if v.IsActive(0) {
		t.Fatal("draining slot still active")
	}
	v, err = tr.Leave(0)
	if err != nil || v.Status(0) != Left || v.Epoch != 4 {
		t.Fatalf("leave: %v %+v", err, v)
	}
	// Left is terminal.
	if _, err := tr.Revive(0); err == nil {
		t.Fatal("revived a Left slot")
	}
	if _, err := tr.Drain(0); err == nil {
		t.Fatal("drained a Left slot")
	}

	// Fail/revive cycle.
	if v, err = tr.Fail(1); err != nil || v.Status(1) != Down {
		t.Fatalf("fail: %v %+v", err, v)
	}
	if v, err = tr.Revive(1); err != nil || !v.IsActive(1) {
		t.Fatalf("revive: %v %+v", err, v)
	}

	// Slots never shrink or get reused.
	slot2, v := tr.Join("")
	if slot2 != 3 || v.Slots() != 4 {
		t.Fatalf("second join: slot=%d slots=%d", slot2, v.Slots())
	}
	if _, err := tr.Leave(-1); err == nil {
		t.Fatal("out-of-range leave accepted")
	}
}

func TestTrackerSeededDown(t *testing.T) {
	tr := NewTracker(4, []int{1, 3})
	v := tr.View()
	if v.NumActive() != 2 || v.Status(1) != Down || v.Status(3) != Down {
		t.Fatalf("seeded view = %+v", v)
	}
	if v, err := tr.Revive(3); err != nil || !v.IsActive(3) {
		t.Fatalf("revive seeded-down: %v", err)
	}
}

func TestViewIsolation(t *testing.T) {
	tr := NewTracker(1, nil)
	v1 := tr.View()
	tr.Join("")
	if v1.Slots() != 1 {
		t.Fatal("earlier view mutated by later join")
	}
	v1.Members[0].Status = Down
	if tr.View().Status(0) != Active {
		t.Fatal("mutating a view copy leaked into the tracker")
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(2, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tr.Join("")
				tr.View()
			}
		}()
	}
	wg.Wait()
	v := tr.View()
	if v.Slots() != 2+8*50 {
		t.Fatalf("slots = %d, want %d", v.Slots(), 2+8*50)
	}
	if v.Epoch != uint64(1+8*50) {
		t.Fatalf("epoch = %d, want %d", v.Epoch, 1+8*50)
	}
}

func TestRendezvousDeterministicAndInRange(t *testing.T) {
	slots := []int{0, 1, 2, 3}
	for key := uint64(0); key < 1000; key++ {
		p := Rendezvous(key, slots)
		if p < 0 || p > 3 {
			t.Fatalf("key %d -> %d", key, p)
		}
		if q := Rendezvous(key, slots); q != p {
			t.Fatalf("key %d not deterministic: %d vs %d", key, p, q)
		}
	}
	if Rendezvous(7, nil) != -1 {
		t.Fatal("empty slot set must return -1")
	}
}

func TestRendezvousBalances(t *testing.T) {
	slots := []int{0, 1, 2, 3, 4, 5}
	counts := make(map[int]int)
	const keys = 60000
	for key := uint64(0); key < keys; key++ {
		counts[Rendezvous(key, slots)]++
	}
	want := keys / len(slots)
	for _, s := range slots {
		if c := counts[s]; c < want*8/10 || c > want*12/10 {
			t.Fatalf("slot %d got %d of %d keys (want ~%d)", s, c, keys, want)
		}
	}
}

// TestRendezvousStableRemap pins the property the elasticity acceptance
// criterion relies on: growing the active set from N to N+k moves only
// ~k/(N+k) of the keys, and removing one member moves only its own share.
func TestRendezvousStableRemap(t *testing.T) {
	const keys = 20000
	four := []int{0, 1, 2, 3}
	six := []int{0, 1, 2, 3, 4, 5}

	moved := 0
	for key := uint64(0); key < keys; key++ {
		if Rendezvous(key, four) != Rendezvous(key, six) {
			moved++
		}
	}
	frac := float64(moved) / keys
	// Expected 2/6 ≈ 0.333; allow generous sampling slack but stay far
	// below the ~0.83 a modulo remap would show.
	if frac > 0.40 {
		t.Fatalf("4->6 moved %.1f%% of keys, want ~33%%", 100*frac)
	}
	if frac < 0.25 {
		t.Fatalf("4->6 moved only %.1f%% of keys — new members are starved", 100*frac)
	}

	// Removing slot 2: only keys owned by 2 move, nothing else reshuffles.
	fourMinus := []int{0, 1, 3}
	for key := uint64(0); key < keys; key++ {
		was, now := Rendezvous(key, four), Rendezvous(key, fourMinus)
		if was != 2 && now != was {
			t.Fatalf("key %d moved %d->%d though slot 2 left", key, was, now)
		}
		if was == 2 && now == 2 {
			t.Fatalf("key %d still routed to removed slot", key)
		}
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Active: "active", Draining: "draining", Down: "down", Left: "left",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
