// Package simnet provides the virtual-time network and compute cost models
// that stand in for the paper's physical cluster (12 servers, 40 Gbps
// Infiniband with RDMA, and 10 Gbps Ethernet).
//
// All experiment engines run in virtual time: every operation charges a
// deterministic cost derived from one of these profiles, and per-server
// timelines model queueing/contention at the storage tier. Using virtual
// time keeps runs fast, reproducible, and independent of the host machine,
// while preserving the performance *shape* the paper measures (relative
// throughput, saturation points, crossovers).
package simnet

import "time"

// Profile is a cluster cost model.
type Profile struct {
	Name string

	// RTT is the one-request round-trip latency between a query processor
	// and a storage server (paper: RAMCloud over Infiniband does a get in
	// 5-10 µs; Ethernet RPC is an order of magnitude slower).
	RTT time.Duration
	// PerKeyService is the storage server's per-key service time; a
	// multi-read of k keys occupies the server for k×PerKeyService.
	PerKeyService time.Duration
	// BytesPerSec is the network bandwidth between tiers.
	BytesPerSec float64

	// RouterBase is the fixed per-query routing decision cost; strategies
	// add their own O(P) or O(P·D) term via RouterPerUnit.
	RouterBase    time.Duration
	RouterPerUnit time.Duration

	// CacheHit is the processor-side cost of one cache lookup hit;
	// CacheInsert the cost of admitting one record; CacheLookupMiss the
	// wasted lookup before a fetch (the "maintenance and lookup costs" that
	// make tiny caches lose to no-cache in Figure 9).
	CacheHit        time.Duration
	CacheInsert     time.Duration
	CacheLookupMiss time.Duration

	// ComputePerNode is the query-processing cost per node visited
	// (adjacency scan, counting, hashing into the visited set).
	ComputePerNode time.Duration

	// BarrierOverhead is the per-superstep synchronisation cost of the
	// coupled BSP baseline (Giraph-style); RoundOverhead is the GAS
	// baseline's lighter per-round scheduling cost.
	BarrierOverhead time.Duration
	RoundOverhead   time.Duration
	// MsgCost is the per-message cost of cross-partition vertex messages
	// in the coupled baselines (serialisation + send over Ethernet).
	MsgCost time.Duration
}

// Infiniband models the paper's primary deployment: RDMA reads in a few
// microseconds over 40 Gbps links.
func Infiniband() Profile {
	return Profile{
		Name: "infiniband",
		RTT:  6 * time.Microsecond,
		// Per-key service covers hash lookup, log-structured read and
		// multiread marshalling on the storage server — the dominant cost
		// of adjacency fetches, as in RAMCloud where a small read costs
		// ~5µs end to end and batched reads amortise to ~1-2µs per object.
		PerKeyService:   3 * time.Microsecond,
		BytesPerSec:     40e9 / 8,
		RouterBase:      2 * time.Microsecond,
		RouterPerUnit:   80 * time.Nanosecond,
		CacheHit:        150 * time.Nanosecond,
		CacheInsert:     150 * time.Nanosecond,
		CacheLookupMiss: 50 * time.Nanosecond,
		ComputePerNode:  400 * time.Nanosecond,
		// Per-superstep costs for the coupled baselines, scaled for
		// lightweight logical supersteps over a 12-machine cluster (a full
		// Giraph/ZooKeeper barrier is milliseconds; concurrent queries in
		// one job share each wave's barrier, see baseline.WaveSize).
		BarrierOverhead: time.Millisecond,
		RoundOverhead:   400 * time.Microsecond,
		MsgCost:         2 * time.Microsecond,
	}
}

// Ethernet models the 10 Gbps deployment used for gRouting-E and the
// coupled baselines (which cannot use RDMA).
func Ethernet() Profile {
	e := Infiniband()
	e.Name = "ethernet"
	e.RTT = 90 * time.Microsecond
	e.BytesPerSec = 10e9 / 8
	return e
}

// TransferCost returns the wire time for payload bytes under p.
func (p Profile) TransferCost(bytes int64) time.Duration {
	if p.BytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / p.BytesPerSec * float64(time.Second))
}

// Timeline tracks per-server work backlogs in virtual time and is the
// contention model for the storage tier: a batch arriving at a busy server
// waits for the server's outstanding backlog to drain.
//
// The backlog drains at rate 1 between arrivals, so the model is
// insensitive to the order in which concurrently executing queries charge
// their work (the engine executes one query to completion before the next,
// interleaving virtual time) — only sustained utilisation above capacity
// builds queueing delay, which is exactly the saturation behaviour
// Figure 8(c) measures.
type Timeline struct {
	backlog []time.Duration
	lastAt  []time.Duration
	// delay is per-server injected link latency (chaos slow-link faults):
	// pure wire time added to every response, not server work, so it
	// stretches latency without building backlog.
	delay []time.Duration
}

// NewTimeline creates a timeline for n servers, all idle at t=0.
func NewTimeline(n int) *Timeline {
	return &Timeline{
		backlog: make([]time.Duration, n),
		lastAt:  make([]time.Duration, n),
		delay:   make([]time.Duration, n),
	}
}

// ensure grows the timeline to cover server s: the storage tier is
// elastic, so a server added mid-run starts idle at whatever virtual time
// its first request arrives.
func (t *Timeline) ensure(s int) {
	for len(t.backlog) <= s {
		t.backlog = append(t.backlog, 0)
		t.lastAt = append(t.lastAt, 0)
		t.delay = append(t.delay, 0)
	}
}

// SetDelay injects d of extra link latency on every request served by
// server s (0 clears it). This is the chaos framework's slow-link fault.
func (t *Timeline) SetDelay(s int, d time.Duration) {
	t.ensure(s)
	t.delay[s] = d
}

// Serve charges work to server s for a request arriving at start and
// returns its finish time (arrival + queueing wait + service). Arrivals
// slightly out of virtual-time order join the current backlog without
// draining it.
func (t *Timeline) Serve(s int, start, work time.Duration) time.Duration {
	t.ensure(s)
	if start > t.lastAt[s] {
		elapsed := start - t.lastAt[s]
		if t.backlog[s] > elapsed {
			t.backlog[s] -= elapsed
		} else {
			t.backlog[s] = 0
		}
		t.lastAt[s] = start
	}
	wait := t.backlog[s]
	t.backlog[s] += work
	return start + wait + work + t.delay[s]
}
