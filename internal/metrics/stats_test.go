package metrics

import (
	"strings"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
	s := h.Summary()
	if s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 samples of 10, 10 samples of 1000: p50 must bound 10's bucket,
	// p99 must reach 1000's bucket.
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	if got := h.Quantile(0.5); got < 10 || got > 15 {
		t.Fatalf("p50 = %d, want in [10,15] (bucket bound of 10)", got)
	}
	if got := h.Quantile(0.99); got < 1000 || got > 1023 {
		t.Fatalf("p99 = %d, want in [1000,1023]", got)
	}
	// Quantile bounds never exceed the observed max.
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("p100 = %d, want max 1000", got)
	}
	s := h.Summary()
	if s.Count != 110 || s.Max != 1000 {
		t.Fatalf("summary = %+v", s)
	}
	if want := int64((100*10 + 10*1000) / 110); s.Mean != want {
		t.Fatalf("mean = %d, want %d", s.Mean, want)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5) // clamped
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("all-zero quantile = %d", got)
	}
	if s := h.Summary(); s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
}

func TestCacheCounters(t *testing.T) {
	c := CacheCounters{Hits: 30, Misses: 10}
	if c.Touches() != 40 {
		t.Fatalf("touches = %d", c.Touches())
	}
	if got := c.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v", got)
	}
	var agg CacheCounters
	agg.Add(c)
	agg.Add(CacheCounters{Hits: 10, Misses: 10, Evictions: 3})
	if agg.Hits != 40 || agg.Misses != 20 || agg.Evictions != 3 {
		t.Fatalf("agg = %+v", agg)
	}
	if (CacheCounters{}).HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
}

func TestSnapshotString(t *testing.T) {
	s := &Snapshot{
		Transport:  "local",
		Policy:     "embed",
		Strategy:   "embed",
		Processors: 2,
		Queries:    10,
		Cache:      CacheCounters{Hits: 8, Misses: 2},
		PerProc: []ProcCounters{
			{Proc: 0, Assigned: 6, Executed: 6, Cache: CacheCounters{Hits: 5, Misses: 1}},
			{Proc: 1, Assigned: 4, Executed: 4, Cache: CacheCounters{Hits: 3, Misses: 1}},
		},
	}
	out := s.String()
	for _, want := range []string{"policy=embed", "80.0% hit rate", "proc", "assigned", "queue depth"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered snapshot missing %q:\n%s", want, out)
		}
	}
}
