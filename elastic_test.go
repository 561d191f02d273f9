package grouting_test

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	grouting "repro"
)

// elasticTCPCluster is a loopback deployment whose pieces stay reachable
// so the test can grow and shrink the processing tier at runtime.
type elasticTCPCluster struct {
	client       grouting.Client
	router       *grouting.RouterServer
	storageAddrs []string
}

func startElasticTCPCluster(t testing.TB, g *grouting.Graph, nProcs int, policy grouting.Policy) *elasticTCPCluster {
	t.Helper()
	ctx := context.Background()
	var storageAddrs []string
	for i := 0; i < 2; i++ {
		ss, err := grouting.ServeStorage("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ss.Close() })
		storageAddrs = append(storageAddrs, ss.Addr())
	}
	if err := grouting.LoadStorageReplicated(ctx, g, storageAddrs, 1); err != nil {
		t.Fatal(err)
	}
	var procAddrs []string
	for i := 0; i < nProcs; i++ {
		ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{Storage: storageAddrs, CacheBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Close() })
		procAddrs = append(procAddrs, ps.Addr())
	}
	rs, err := grouting.ServeRouter("127.0.0.1:0", grouting.RouterSpec{
		Processors: procAddrs,
		Policy:     policy,
		Graph:      g,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	cl, err := grouting.Dial(ctx, rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return &elasticTCPCluster{client: cl, router: rs, storageAddrs: storageAddrs}
}

// joinProcessor starts a fresh processor and registers it with the
// running router, returning its assigned slot.
func (c *elasticTCPCluster) joinProcessor(t testing.TB) (*grouting.ProcessorServer, int) {
	t.Helper()
	ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{Storage: c.storageAddrs, CacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	slot, err := ps.Register(context.Background(), c.router.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	return ps, slot
}

// TestElasticityCrossTransport is the PR's acceptance test: scale the
// processing tier from 4 to 6 mid-workload on the virtual-time engine AND
// over TCP. Both transports must finish with exact (hence identical)
// results, the joined processors must receive work within the epoch that
// admitted them, and the stable-remap hash policy must move only ~1/N of
// a sampled key set between the two epochs.
func TestElasticityCrossTransport(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 20, QueriesPerHotspot: 10, R: 2, H: 2, Seed: 3,
	})
	half := len(qs) / 2
	ctx := context.Background()

	sys, err := grouting.New(g,
		grouting.WithProcessors(4),
		grouting.WithStorageServers(2),
		grouting.WithPolicy(grouting.PolicyStableHash),
		grouting.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	local, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}
	tcp := startElasticTCPCluster(t, g, 4, grouting.PolicyStableHash)

	scaleOut := map[string]func() []int{
		"virtual-time": func() []int {
			return []int{sys.AddProcessor(), sys.AddProcessor()}
		},
		"tcp": func() []int {
			_, s1 := tcp.joinProcessor(t)
			_, s2 := tcp.joinProcessor(t)
			return []int{s1, s2}
		},
	}
	clients := map[string]grouting.Client{"virtual-time": local, "tcp": tcp.client}

	results := map[string][]grouting.Result{}
	assigned := map[string][]int64{}
	for name, cl := range clients {
		res := make([]grouting.Result, len(qs))
		for _, q := range qs[:half] {
			r, err := cl.Execute(ctx, q)
			if err != nil {
				t.Fatalf("%s: pre-scale query %d: %v", name, q.ID, err)
			}
			res[q.ID] = r
		}
		pre, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		joined := scaleOut[name]()
		for _, q := range qs[half:] {
			r, err := cl.Execute(ctx, q)
			if err != nil {
				t.Fatalf("%s: post-scale query %d: %v", name, q.ID, err)
			}
			res[q.ID] = r
		}
		snap, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Epoch <= pre.Epoch {
			t.Fatalf("%s: epoch did not advance on scale-out (%d -> %d)", name, pre.Epoch, snap.Epoch)
		}
		if snap.Processors != 6 || len(snap.PerProc) != 6 {
			t.Fatalf("%s: snapshot sees %d processors, want 6", name, snap.Processors)
		}
		// The joined processors received work within the same epoch that
		// admitted them (no further transitions happened).
		for _, slot := range joined {
			if snap.PerProc[slot].Assigned == 0 {
				t.Fatalf("%s: joined slot %d assigned no work in epoch %d: %+v",
					name, slot, snap.Epoch, snap.PerProc[slot])
			}
		}
		results[name] = res
		assigned[name] = make([]int64, len(snap.PerProc))
		for i, pc := range snap.PerProc {
			assigned[name][i] = pc.Assigned
		}
	}
	// Same decision code on both transports: stablehash ignores load, so
	// every query landed on the same slot in virtual time and over TCP.
	if vt, tcp := assigned["virtual-time"], assigned["tcp"]; !slices.Equal(vt, tcp) {
		t.Fatalf("per-slot Assigned differs between transports: virtual-time %v, tcp %v", vt, tcp)
	}

	// Both transports agree with the oracle — and therefore each other —
	// across the epoch change.
	for name, res := range results {
		for _, q := range qs {
			if want := grouting.Answer(g, q); res[q.ID] != want {
				t.Fatalf("%s: query %d: got %+v, want %+v", name, q.ID, res[q.ID], want)
			}
		}
	}
	for id := range qs {
		if results["virtual-time"][id] != results["tcp"][id] {
			t.Fatalf("query %d differs between transports", id)
		}
	}
}

// TestStableRemapBoundPublicAPI pins the stable-remap acceptance bound on
// the public strategy path: growing the active set 4→6 moves at most ~1/N
// (here 2/6 ≈ 33%, asserted ≤ 45% with sampling slack) of a sampled key
// set, far below the ~83% a modulo remap shows on the same sample.
func TestStableRemapBoundPublicAPI(t *testing.T) {
	s, err := grouting.NewStrategy(grouting.PolicyStableHash, grouting.StrategyResources{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	ta, ok := s.(grouting.TopologyAware)
	if !ok {
		t.Fatal("stablehash is not topology-aware")
	}
	const keys = 4000
	loads := make([]int, 6)
	before := make([]int, keys)
	for k := 0; k < keys; k++ {
		before[k] = s.Pick(grouting.Query{Node: grouting.NodeID(k)}, loads[:4])
	}
	six := grouting.TopologyView{Epoch: 2, Members: make([]grouting.TopologyMember, 6)}
	for i := range six.Members {
		six.Members[i] = grouting.TopologyMember{Slot: i, Status: grouting.ProcActive}
	}
	ta.SetTopology(six)
	moved, naiveMoved := 0, 0
	for k := 0; k < keys; k++ {
		if s.Pick(grouting.Query{Node: grouting.NodeID(k)}, loads) != before[k] {
			moved++
		}
		if k%4 != k%6 {
			naiveMoved++
		}
	}
	if frac := float64(moved) / keys; frac > 0.45 {
		t.Fatalf("stablehash moved %.1f%% of sampled keys on 4->6, want <= 45%%", 100*frac)
	}
	if frac := float64(naiveMoved) / keys; float64(moved)/keys >= frac {
		t.Fatalf("stablehash (%d) does not beat modulo (%d) on the same sample", moved, naiveMoved)
	}
}

// checkSnapshotConsistent asserts a snapshot is internally consistent with
// the single epoch it claims: the active-member count matches the header,
// and rows exist for every slot of that epoch.
func checkSnapshotConsistent(t *testing.T, name string, snap grouting.Stats) {
	t.Helper()
	active := 0
	for _, p := range snap.PerProc {
		if p.Status == "active" {
			active++
		}
	}
	if active != snap.Processors {
		t.Fatalf("%s: snapshot mixes epochs: header says %d active, rows say %d (epoch %d)",
			name, snap.Processors, active, snap.Epoch)
	}
}

// TestConcurrentExecuteStatsLocalTransition hammers a local client with
// concurrent Execute and Stats while the topology transitions underneath
// (run under -race in CI): no query is lost or double-counted, every
// snapshot is internally consistent, and epochs only move forward.
func TestConcurrentExecuteStatsLocalTransition(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 15, QueriesPerHotspot: 10, R: 2, H: 2, Seed: 3,
	})
	sys, err := grouting.New(g,
		grouting.WithProcessors(3),
		grouting.WithStorageServers(2),
		grouting.WithPolicy(grouting.PolicyStableHash),
		grouting.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := grouting.NewLocalClient(sys)
	if err != nil {
		t.Fatal(err)
	}
	runConcurrentTransitions(t, "local", cl, qs,
		func() int { return sys.AddProcessor() },
		func(slot int) error { return sys.DrainProcessor(slot) },
	)
}

// TestConcurrentExecuteStatsTCPTransition is the same hammering over TCP:
// processors join and drain while clients execute and poll stats.
func TestConcurrentExecuteStatsTCPTransition(t *testing.T) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 15, QueriesPerHotspot: 10, R: 2, H: 2, Seed: 3,
	})
	tcp := startElasticTCPCluster(t, g, 3, grouting.PolicyStableHash)
	var procs sync.Map // slot -> *grouting.ProcessorServer
	runConcurrentTransitions(t, "tcp", tcp.client, qs,
		func() int {
			ps, slot := tcp.joinProcessor(t)
			procs.Store(slot, ps)
			return slot
		},
		func(slot int) error {
			v, _ := procs.Load(slot)
			return v.(*grouting.ProcessorServer).Deregister(context.Background())
		},
	)
}

// runConcurrentTransitions drives exec/stats/transition goroutines against
// one client and checks the final accounting.
func runConcurrentTransitions(t *testing.T, name string, cl grouting.Client, qs []grouting.Query,
	add func() int, drain func(int) error) {
	t.Helper()
	ctx := context.Background()
	var executed atomic.Int64
	var wg sync.WaitGroup
	execDone := make(chan struct{})

	wg.Add(1)
	go func() { // executor
		defer wg.Done()
		defer close(execDone)
		for _, q := range qs {
			if _, err := cl.Execute(ctx, q); err != nil {
				t.Errorf("%s: execute: %v", name, err)
				return
			}
			executed.Add(1)
		}
	}()
	wg.Add(1)
	go func() { // stats poller
		defer wg.Done()
		var lastEpoch uint64
		for {
			select {
			case <-execDone:
				return
			default:
			}
			snap, err := cl.Stats(ctx)
			if err != nil {
				t.Errorf("%s: stats: %v", name, err)
				return
			}
			if snap.Epoch < lastEpoch {
				t.Errorf("%s: epoch went backwards: %d -> %d", name, lastEpoch, snap.Epoch)
				return
			}
			lastEpoch = snap.Epoch
			checkSnapshotConsistent(t, name, snap)
			// Brief pause: a stats poll costs real round trips on tcp; an
			// unthrottled poller starves the executor on small CI boxes.
			time.Sleep(time.Millisecond)
		}
	}()
	// waitFor parks until the executor has passed n queries (or finished).
	waitFor := func(n int64) {
		for executed.Load() < n {
			select {
			case <-execDone:
				return
			default:
				runtime.Gosched()
			}
		}
	}
	wg.Add(1)
	go func() { // topology churn: two joins, then drain one of them
		defer wg.Done()
		waitFor(int64(len(qs)) / 4)
		s1 := add()
		waitFor(int64(len(qs)) / 2)
		add()
		waitFor(int64(3*len(qs)) / 4)
		if err := drain(s1); err != nil {
			t.Errorf("%s: drain: %v", name, err)
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	snap, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshotConsistent(t, name, snap)
	var sumExecuted int64
	for _, p := range snap.PerProc {
		sumExecuted += p.Executed
	}
	if sumExecuted != int64(len(qs)) {
		t.Fatalf("%s: per-proc executed sums to %d, want %d (lost or double-counted)", name, sumExecuted, len(qs))
	}
	if snap.Queries != int64(len(qs)) {
		t.Fatalf("%s: Queries = %d, want %d", name, snap.Queries, len(qs))
	}
}
