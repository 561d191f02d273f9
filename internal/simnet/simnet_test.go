package simnet

import (
	"testing"
	"time"
)

func TestProfilesSane(t *testing.T) {
	ib, eth := Infiniband(), Ethernet()
	if ib.Name == eth.Name {
		t.Fatal("profiles share a name")
	}
	if eth.RTT <= ib.RTT {
		t.Fatalf("ethernet RTT %v should exceed infiniband %v", eth.RTT, ib.RTT)
	}
	if eth.BytesPerSec >= ib.BytesPerSec {
		t.Fatal("ethernet bandwidth should be below infiniband")
	}
	// Infiniband get latency lands in RAMCloud's 5-10us window.
	if ib.RTT < 5*time.Microsecond || ib.RTT > 10*time.Microsecond {
		t.Fatalf("infiniband RTT %v outside RAMCloud's 5-10us envelope", ib.RTT)
	}
}

func TestTransferCost(t *testing.T) {
	p := Profile{BytesPerSec: 1e9}
	if got := p.TransferCost(1e9); got != time.Second {
		t.Fatalf("TransferCost(1GB @ 1GB/s) = %v", got)
	}
	if got := p.TransferCost(0); got != 0 {
		t.Fatalf("TransferCost(0) = %v", got)
	}
	var zero Profile
	if got := zero.TransferCost(100); got != 0 {
		t.Fatalf("zero-bandwidth TransferCost = %v", got)
	}
}

func TestTimelineFIFO(t *testing.T) {
	tl := NewTimeline(2)
	// First job at t=0 for 10; second arrives at t=5 but must wait.
	f1 := tl.Serve(0, 0, 10)
	if f1 != 10 {
		t.Fatalf("f1 = %v", f1)
	}
	f2 := tl.Serve(0, 5, 10)
	if f2 != 20 {
		t.Fatalf("f2 = %v, want 20 (queued behind f1)", f2)
	}
	// Server 1 is untouched.
	if got := tl.Serve(1, 5, 10); got != 15 {
		t.Fatalf("server 1 finish = %v, want 15", got)
	}
}

func TestTimelineIdleGap(t *testing.T) {
	tl := NewTimeline(1)
	tl.Serve(0, 0, 10)
	// Arrival long after idle: starts at its own arrival time.
	if got := tl.Serve(0, 100, 5); got != 105 {
		t.Fatalf("finish = %v, want 105", got)
	}
	if tl.Available(0) != 105 {
		t.Fatalf("available = %v", tl.Available(0))
	}
}

func TestContentionGrowsWithLoad(t *testing.T) {
	// The Figure 8(c) mechanism: the same total work on fewer servers
	// yields later completion.
	run := func(servers int) time.Duration {
		tl := NewTimeline(servers)
		var last time.Duration
		for i := 0; i < 100; i++ {
			f := tl.Serve(i%servers, 0, time.Microsecond)
			if f > last {
				last = f
			}
		}
		return last
	}
	if run(1) <= run(4) {
		t.Fatalf("1 server (%v) should finish later than 4 servers (%v)", run(1), run(4))
	}
}

// Available returns the time at which server s' current backlog drains.
func (t *Timeline) Available(s int) time.Duration {
	if s >= len(t.backlog) {
		return 0
	}
	return t.lastAt[s] + t.backlog[s]
}
