package topology

import "testing"

func TestTierString(t *testing.T) {
	if TierProcessor.String() != "proc" || TierStorage.String() != "storage" {
		t.Fatalf("tier strings = %q / %q", TierProcessor, TierStorage)
	}
}

func TestTierTrackerMembersCarryTier(t *testing.T) {
	tr := NewTierTracker(TierStorage, 3)
	if tr.tier != TierStorage {
		t.Fatalf("tier = %v", tr.tier)
	}
	for _, m := range tr.View().Members {
		if m.Tier != TierStorage {
			t.Fatalf("seeded member %+v lacks storage tier", m)
		}
	}
	slot, v := tr.Join("10.0.0.9:7003")
	if v.Members[slot].Tier != TierStorage {
		t.Fatalf("joined member %+v lacks storage tier", v.Members[slot])
	}
	// The processor-tier constructors keep the zero tier, so existing
	// slot-indexed accounting is untouched.
	pr := NewTracker(2, nil)
	if pr.tier != TierProcessor || pr.View().Members[0].Tier != TierProcessor {
		t.Fatal("NewTracker must seed processor-tier members")
	}
}

func TestRendezvousNHeadMatchesRendezvous(t *testing.T) {
	slots := []int{0, 1, 2, 3, 4, 5, 6}
	var buf [MaxReplicas]int
	for key := uint64(0); key < 5000; key++ {
		got := RendezvousN(key, slots, 3, buf[:0])
		if len(got) != 3 {
			t.Fatalf("key %d: %d slots, want 3", key, len(got))
		}
		if got[0] != Rendezvous(key, slots) {
			t.Fatalf("key %d: head %d != Rendezvous %d", key, got[0], Rendezvous(key, slots))
		}
		seen := map[int]bool{}
		for _, s := range got {
			if seen[s] {
				t.Fatalf("key %d: duplicate slot %d in %v", key, s, got)
			}
			seen[s] = true
		}
	}
}

func TestRendezvousNEdgeCases(t *testing.T) {
	if got := RendezvousN(7, nil, 2, nil); len(got) != 0 {
		t.Fatalf("empty slots -> %v", got)
	}
	if got := RendezvousN(7, []int{4}, 3, nil); len(got) != 1 || got[0] != 4 {
		t.Fatalf("1 slot, r=3 -> %v", got)
	}
	if got := RendezvousN(7, []int{1, 2}, 0, nil); len(got) != 0 {
		t.Fatalf("r=0 -> %v", got)
	}
	// r above MaxReplicas clamps instead of overrunning the scratch.
	slots := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := RendezvousN(7, slots, 99, nil); len(got) != MaxReplicas {
		t.Fatalf("r=99 -> %d slots, want %d", len(got), MaxReplicas)
	}
}

// TestRendezvousNStableRemap mirrors the single-destination remap-bound
// test for replica sets: adding k slots to N displaces each of a key's R
// replicas with probability ~k/(N+k), and removing a slot only moves the
// keys that held it.
func TestRendezvousNStableRemap(t *testing.T) {
	const keys = 20000
	const r = 2
	six := []int{0, 1, 2, 3, 4, 5}
	seven := []int{0, 1, 2, 3, 4, 5, 6}

	var a, b [MaxReplicas]int
	changed := 0
	for key := uint64(0); key < keys; key++ {
		was := append([]int(nil), RendezvousN(key, six, r, a[:0])...)
		now := RendezvousN(key, seven, r, b[:0])
		same := len(was) == len(now)
		for i := 0; same && i < len(was); i++ {
			same = was[i] == now[i]
		}
		if !same {
			changed++
		}
	}
	frac := float64(changed) / keys
	// Each of the 2 replicas moves with probability ~1/7, so ~2/7 ≈ 0.286
	// of keys see any placement change; allow sampling slack but stay far
	// below a reshuffle.
	if frac > 0.36 {
		t.Fatalf("6->7 changed %.1f%% of replica sets, want ~29%%", 100*frac)
	}
	if frac < 0.20 {
		t.Fatalf("6->7 changed only %.1f%% of replica sets — the new slot is starved", 100*frac)
	}

	// Removing slot 3: keys whose set excluded 3 keep identical sets.
	sixMinus := []int{0, 1, 2, 4, 5}
	for key := uint64(0); key < keys; key++ {
		was := append([]int(nil), RendezvousN(key, six, r, a[:0])...)
		had := false
		for _, s := range was {
			if s == 3 {
				had = true
			}
		}
		now := RendezvousN(key, sixMinus, r, b[:0])
		if !had {
			for i := range was {
				if now[i] != was[i] {
					t.Fatalf("key %d: set %v -> %v though slot 3 was not a replica", key, was, now)
				}
			}
			continue
		}
		for _, s := range now {
			if s == 3 {
				t.Fatalf("key %d still placed on removed slot 3: %v", key, now)
			}
		}
	}
}

func TestRendezvousNAllocationFree(t *testing.T) {
	slots := []int{0, 1, 2, 3, 4, 5}
	var buf [MaxReplicas]int
	allocs := testing.AllocsPerRun(200, func() {
		for key := uint64(0); key < 64; key++ {
			RendezvousN(key, slots, 2, buf[:0])
		}
	})
	if allocs != 0 {
		t.Fatalf("RendezvousN allocates %.1f per 64-key run, want 0", allocs)
	}
}
