package core

import (
	"testing"

	"repro/internal/query"
)

// TestFailedProcessorsStillCorrect: with processors down, every query is
// diverted to a live processor and answers stay exact (the decoupled
// design's fault-tolerance property).
func TestFailedProcessorsStillCorrect(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	for _, policy := range []Policy{PolicyHash, PolicyLandmark, PolicyEmbed} {
		cfg := testConfig(policy)
		cfg.FailedProcessors = []int{0, 2}
		sys, err := NewSystem(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWorkload(qs)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			if rep.Results[q.ID] != query.Answer(g, q) {
				t.Fatalf("%v with failures: query %d wrong", policy, q.ID)
			}
		}
		// Failed processors executed nothing.
		if rep.PerProc[0].Executed != 0 || rep.PerProc[2].Executed != 0 {
			t.Fatalf("%v: failed processors executed work: %+v", policy, rep.PerProc)
		}
		// Hash sends ~half its picks to dead processors; they must be
		// diverted (landmark/embed may legitimately divert fewer).
		if policy == PolicyHash && rep.Diverted == 0 {
			t.Fatalf("%v: no diversions recorded", policy)
		}
	}
}

func TestFailureDegradesThroughputGracefully(t *testing.T) {
	g := testGraph()
	qs := testWorkload(g)
	run := func(failed []int) float64 {
		cfg := testConfig(PolicyHash)
		cfg.FailedProcessors = failed
		sys, err := NewSystem(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWorkload(qs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.ThroughputQPS
	}
	full := run(nil)
	degraded := run([]int{0})
	half := run([]int{0, 1})
	if degraded >= full {
		t.Fatalf("1 failure did not reduce throughput: %v >= %v", degraded, full)
	}
	if half >= degraded {
		t.Fatalf("2 failures did not reduce throughput further: %v >= %v", half, degraded)
	}
	// Degradation is graceful, not cliff-like: half the processors should
	// retain well over a third of full throughput.
	if half < full/3 {
		t.Fatalf("cliff degradation: full=%v, 2-failed=%v", full, half)
	}
}

func TestFailureValidation(t *testing.T) {
	g := testGraph()
	cfg := testConfig(PolicyHash)
	cfg.FailedProcessors = []int{99}
	if _, err := NewSystem(g, cfg); err == nil {
		t.Fatal("out-of-range failed processor accepted")
	}
	cfg = testConfig(PolicyHash)
	cfg.FailedProcessors = []int{0, 1, 2, 3}
	if _, err := NewSystem(g, cfg); err == nil {
		t.Fatal("all-processors-failed accepted")
	}
	// A slot listed twice is one failed processor: the other three serve.
	cfg = testConfig(PolicyHash)
	cfg.FailedProcessors = []int{0, 0, 1, 1}
	if _, err := NewSystem(g, cfg); err != nil {
		t.Fatalf("duplicate failed-processor entries counted twice: %v", err)
	}
}
