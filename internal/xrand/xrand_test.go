package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collide on %d/100 outputs", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	s := New(0)
	var zeros int
	for i := 0; i < 100; i++ {
		if s.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 2 {
		t.Fatalf("seed 0 produced %d/100 zero outputs; degenerate state", zeros)
	}
}

func TestSplitDecorrelated(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	matches := 0
	for i := 0; i < 200; i++ {
		if parent.Uint64() == child.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("parent and child streams match on %d/200 outputs", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63NonNegative(t *testing.T) {
	s := New(6)
	for i := 0; i < 10000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63() = %d is negative", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// Property: for any seed, the first 64 outputs of two identically seeded
// sources agree (determinism as a quick-checked property).
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 64; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn always lands in range for arbitrary seeds and n in [1, 1e6].
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed int64, n uint32) bool {
		m := int(n%1000000) + 1
		s := New(seed)
		for i := 0; i < 32; i++ {
			v := s.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}
