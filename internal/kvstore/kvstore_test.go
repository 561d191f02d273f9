package kvstore

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func mustNew(t *testing.T, n int, p Placer) *Store {
	t.Helper()
	s, err := New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// readBatch reads keys through ReadBatch on a plan of its own, so the
// batches stay valid however long the test holds them; vals[i] is keys[i]'s
// value.
func readBatch(s *Store, keys []uint64) ([]Batch, [][]byte) {
	vals := make([][]byte, len(keys))
	return s.ReadBatch(new(BatchPlan), keys, vals), vals
}

// batchErr returns the first batch error, nil when every batch was served.
func batchErr(batches []Batch) error {
	for _, b := range batches {
		if b.Err != nil {
			return b.Err
		}
	}
	return nil
}

func TestNewRejectsZeroServers(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Fatal("New(0) accepted")
	}
	if _, err := New(-3, nil); err == nil {
		t.Fatal("New(-3) accepted")
	}
}

func TestPutGetDelete(t *testing.T) {
	s := mustNew(t, 4, nil)
	s.Put(1, []byte("alpha"))
	s.Put(2, []byte("beta"))
	v, ok := s.Get(1)
	if !ok || string(v) != "alpha" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if _, ok := s.Get(99); ok {
		t.Fatal("Get(99) found a value")
	}
	if !s.Delete(1) {
		t.Fatal("Delete(1) = false")
	}
	if s.Delete(1) {
		t.Fatal("second Delete(1) = true")
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("Get after Delete found a value")
	}
}

func TestPutCopiesValue(t *testing.T) {
	s := mustNew(t, 1, nil)
	buf := []byte("mutable")
	s.Put(7, buf)
	buf[0] = 'X'
	v, _ := s.Get(7)
	if string(v) != "mutable" {
		t.Fatalf("stored value aliased caller buffer: %q", v)
	}
}

func TestPutReplaceAccounting(t *testing.T) {
	s := mustNew(t, 2, nil)
	s.Put(5, []byte("aaaa"))
	s.Put(5, []byte("bb"))
	if got := s.TotalKeys(); got != 1 {
		t.Fatalf("TotalKeys = %d, want 1", got)
	}
	if got := s.TotalBytes(); got != 2 {
		t.Fatalf("TotalBytes = %d, want 2", got)
	}
}

func TestPlacementStable(t *testing.T) {
	s := mustNew(t, 7, nil)
	for k := uint64(0); k < 1000; k++ {
		a, b := s.ServerFor(k), s.ServerFor(k)
		if a != b {
			t.Fatalf("placement of %d unstable: %d vs %d", k, a, b)
		}
		if a < 0 || a >= 7 {
			t.Fatalf("placement of %d out of range: %d", k, a)
		}
	}
}

func TestPlacementSpread(t *testing.T) {
	s := mustNew(t, 4, nil)
	counts := make([]int, 4)
	for k := uint64(0); k < 8000; k++ {
		counts[s.ServerFor(k)]++
	}
	for i, c := range counts {
		if c < 1500 || c > 2500 {
			t.Fatalf("server %d owns %d of 8000 keys (counts %v)", i, c, counts)
		}
	}
}

func TestTablePlacer(t *testing.T) {
	tp := TablePlacer{Assign: []int32{2, 0, 1, -1}}
	if got := tp.Place(0, 3); got != 2 {
		t.Fatalf("Place(0) = %d, want 2", got)
	}
	if got := tp.Place(2, 3); got != 1 {
		t.Fatalf("Place(2) = %d, want 1", got)
	}
	// Negative entry and out-of-table key use the murmur fallback in range.
	for _, k := range []uint64{3, 1000} {
		got := tp.Place(k, 3)
		if got < 0 || got >= 3 {
			t.Fatalf("fallback Place(%d) = %d out of range", k, got)
		}
	}
	// Table entry >= numServers also falls back.
	tp2 := TablePlacer{Assign: []int32{9}}
	if got := tp2.Place(0, 3); got < 0 || got >= 3 {
		t.Fatalf("oversized table entry Place = %d", got)
	}
}

// TestPlace pins the one placement rule: the placer's pick over the domain
// at R = 1 (nil meaning murmur), rendezvous at R >= 2, nothing over an
// empty domain.
func TestPlace(t *testing.T) {
	domain := []int{1, 4, 6}
	if got := Place(7, nil, 1, nil, nil); len(got) != 0 {
		t.Fatalf("empty domain placed %v", got)
	}
	for k := uint64(0); k < 200; k++ {
		want := domain[MurmurPlacer{}.Place(k, len(domain))]
		if got := Place(k, domain, 1, nil, nil); !slices.Equal(got, []int{want}) {
			t.Fatalf("key %d: nil placer %v, murmur %d", k, got, want)
		}
	}
	if got := Place(1, domain, 1, TablePlacer{Assign: []int32{0, 2}}, nil); !slices.Equal(got, []int{6}) {
		t.Fatalf("table placer placed key 1 on %v, want [6]", got)
	}
	if got, want := Place(9, domain, 2, nil, nil), topology.RendezvousN(9, domain, 2, nil); !slices.Equal(got, want) {
		t.Fatalf("R = 2 placed %v, rendezvous %v", got, want)
	}
}

func TestStatsCounting(t *testing.T) {
	s := mustNew(t, 1, nil)
	s.Put(1, []byte("x"))
	s.Get(1)
	s.Get(2) // miss
	s.Delete(1)
	st := s.Stats(0)
	if st.Puts != 1 || st.Gets != 2 || st.Misses != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Keys != 0 || st.Bytes != 0 {
		t.Fatalf("post-delete accounting = %+v", st)
	}
}

func TestPlanBatchesGroupsByServer(t *testing.T) {
	s := mustNew(t, 3, nil)
	keys := make([]uint64, 60)
	for i := range keys {
		keys[i] = uint64(i)
	}
	batches, _ := readBatch(s, keys)
	total := 0
	seen := map[int]bool{}
	for _, b := range batches {
		if seen[b.Server] {
			t.Fatalf("server %d appears in two batches", b.Server)
		}
		seen[b.Server] = true
		for _, k := range b.Keys {
			if s.ServerFor(k) != b.Server {
				t.Fatalf("key %d planned on %d, owned by %d", k, b.Server, s.ServerFor(k))
			}
			total++
		}
	}
	if total != len(keys) {
		t.Fatalf("batches cover %d keys, want %d", total, len(keys))
	}
	if b, _ := readBatch(s, nil); b != nil {
		t.Fatal("ReadBatch(nil) != nil")
	}
}

func TestGetBatch(t *testing.T) {
	s := mustNew(t, 2, nil)
	for k := uint64(0); k < 20; k++ {
		s.Put(k, []byte{byte(k), byte(k)})
	}
	keys := []uint64{0, 1, 2, 3, 4, 100}
	batches, vals := readBatch(s, keys)
	if err := batchErr(batches); err != nil {
		t.Fatal(err)
	}
	var got, missing, bytes int
	for i, k := range keys {
		if v := vals[i]; v != nil {
			got++
			bytes += len(v)
			if len(v) != 2 || v[0] != byte(k) {
				t.Fatalf("wrong value for key %d: %v", k, v)
			}
		} else {
			missing++
		}
	}
	if got != 5 || missing != 1 {
		t.Fatalf("got=%d missing=%d, want 5/1", got, missing)
	}
	if bytes != 10 {
		t.Fatalf("bytes = %d, want 10", bytes)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := mustNew(t, 4, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * 1000)
			for i := uint64(0); i < 500; i++ {
				s.Put(base+i, []byte(fmt.Sprintf("v%d", base+i)))
			}
			for i := uint64(0); i < 500; i++ {
				v, ok := s.Get(base + i)
				if !ok || string(v) != fmt.Sprintf("v%d", base+i) {
					t.Errorf("worker %d: Get(%d) = %q, %v", w, base+i, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.TotalKeys() != 4000 {
		t.Fatalf("TotalKeys = %d, want 4000", s.TotalKeys())
	}
}

// Property: Get returns exactly what Put stored, for arbitrary keys/values.
func TestQuickRoundTrip(t *testing.T) {
	s := mustNew(t, 5, nil)
	f := func(key uint64, val []byte) bool {
		s.Put(key, val)
		got, ok := s.Get(key)
		return ok && string(got) == string(val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: batches partition the key multiset.
func TestQuickPlanPartition(t *testing.T) {
	s := mustNew(t, 3, nil)
	f := func(keys []uint64) bool {
		count := map[uint64]int{}
		for _, k := range keys {
			count[k]++
		}
		batches, _ := readBatch(s, keys)
		for _, b := range batches {
			for _, k := range b.Keys {
				count[k]--
			}
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// putMixed stores two-byte values under every multiple of 1<<25 below 1<<31
// and empty values under 1 + every multiple of 1<<27, so mixedKeys can draw
// present, empty-valued and (almost always) absent keys.
func putMixed(s *Store) {
	for k := uint64(0); k < 1<<31; k += 1 << 25 {
		s.Put(k, []byte{byte(k >> 25), 1})
	}
	for k := uint64(1); k < 1<<31; k += 1 << 27 {
		s.Put(k, []byte{})
	}
}

// mixedKeys returns round's keys (a length that varies with round, zero
// included): stored keys, empty-valued keys and random ones in turn.
func mixedKeys(rng *uint64, round int) []uint64 {
	keys := make([]uint64, round*7%23)
	for i := range keys {
		*rng = *rng*6364136223846793005 + 1442695040888963407
		r := *rng
		keys[i] = []uint64{(r >> 58) << 25, (r>>60)<<27 + 1, r >> 33}[i%3]
	}
	return keys
}

// TestPlanBatchesInMatchesPlanBatches checks ReadBatch's grouping on one
// reused plan against per-key ServerFor: batches in first-seen server
// order, input order kept within each batch, plus position indices that
// map every grouped key back to its input slot.
func TestPlanBatchesInMatchesPlanBatches(t *testing.T) {
	s, _ := New(5, nil)
	putMixed(s)
	var plan BatchPlan
	rng := uint64(1)
	for round := 0; round < 20; round++ {
		keys := mixedKeys(&rng, round)
		var order []int
		want := map[int][]uint64{}
		for _, k := range keys {
			sv := s.ServerFor(k)
			if _, seen := want[sv]; !seen {
				order = append(order, sv)
			}
			want[sv] = append(want[sv], k)
		}
		got := s.ReadBatch(&plan, keys, make([][]byte, len(keys)))
		if len(got) != len(order) {
			t.Fatalf("round %d: %d batches, want %d", round, len(got), len(order))
		}
		for i, sv := range order {
			gb, wk := got[i], want[sv]
			if gb.Server != sv || gb.Err != nil {
				t.Fatalf("round %d batch %d: server %d err %v, want server %d", round, i, gb.Server, gb.Err, sv)
			}
			if len(gb.Keys) != len(wk) || len(gb.Pos) != len(wk) {
				t.Fatalf("round %d batch %d: %d keys / %d pos, want %d", round, i, len(gb.Keys), len(gb.Pos), len(wk))
			}
			for j := range wk {
				if gb.Keys[j] != wk[j] {
					t.Fatalf("round %d batch %d key %d: %d, want %d", round, i, j, gb.Keys[j], wk[j])
				}
				if keys[gb.Pos[j]] != gb.Keys[j] {
					t.Fatalf("round %d batch %d: pos %d does not map back to key %d", round, i, gb.Pos[j], gb.Keys[j])
				}
			}
		}
	}
}

// TestGetBatchIntoMatchesGetBatch checks ReadBatch's values on one reused
// plan against single Gets: every value Get's — present, absent and empty
// values alike (an empty value reads non-nil) — and the byte total of the
// values read the sum of Get's.
func TestGetBatchIntoMatchesGetBatch(t *testing.T) {
	s, _ := New(5, nil)
	putMixed(s)
	var plan BatchPlan
	rng := uint64(1)
	for round := 0; round < 20; round++ {
		keys := mixedKeys(&rng, round)
		vals := make([][]byte, len(keys))
		if err := batchErr(s.ReadBatch(&plan, keys, vals)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var gotBytes, wantBytes int
		for i, k := range keys {
			v, ok := s.Get(k)
			if (vals[i] != nil) != ok || string(vals[i]) != string(v) {
				t.Fatalf("round %d key %d: ReadBatch %q (non-nil %v) != Get (%q, %v)", round, k, vals[i], vals[i] != nil, v, ok)
			}
			gotBytes += len(vals[i])
			wantBytes += len(v)
		}
		if gotBytes != wantBytes {
			t.Fatalf("round %d: byte totals differ: %d vs %d", round, gotBytes, wantBytes)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s, _ := New(4, nil)
	for k := uint64(0); k < 10000; k++ {
		s.Put(k, make([]byte, 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(uint64(i) % 10000)
	}
}
