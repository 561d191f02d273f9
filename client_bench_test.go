package grouting_test

import (
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	grouting "repro"
)

// BenchmarkClientBatch quantifies the pipelining win on the loopback TCP
// transport: the same workload submitted one round trip per query
// (Execute), as a single batched round trip (ExecuteBatch), and as a
// pipelined stream with several queries in flight (ExecuteStream).
func BenchmarkClientBatch(b *testing.B) {
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs := grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 16, QueriesPerHotspot: 4, R: 2, H: 2, Seed: 3,
	})
	cl, _ := startLoopback(b, g, grouting.Config{Processors: 3, StorageServers: 2, Policy: grouting.PolicyHash, CacheBytes: 64 << 20})
	ctx := context.Background()

	// Warm the processor caches so every variant measures submission cost,
	// not first-touch storage fetches.
	if _, err := cl.ExecuteBatch(ctx, qs); err != nil {
		b.Fatal(err)
	}

	b.Run("execute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := cl.Execute(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(qs)), "queries/op")
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.ExecuteBatch(ctx, qs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(qs)), "queries/op")
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := make(chan grouting.Query)
			go func() {
				defer close(in)
				for _, q := range qs {
					in <- q
				}
			}()
			for o := range cl.ExecuteStream(ctx, in) {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
		}
		b.ReportMetric(float64(len(qs)), "queries/op")
	})
}

// allocBenchSetup builds the paired clients the allocation measurements
// compare: the in-process virtual-time engine and a loopback TCP cluster
// over the binary wire protocol, both warmed on the same workload.
func allocBenchSetup(tb testing.TB) (local, remote grouting.Client, qs []grouting.Query) {
	tb.Helper()
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	qs = grouting.HotspotWorkload(g, grouting.WorkloadSpec{
		NumHotspots: 16, QueriesPerHotspot: 4, R: 2, H: 2, Seed: 3,
	})
	local, remote = twoTransports(tb, g, grouting.Config{
		Processors: 3, StorageServers: 2, Policy: grouting.PolicyHash, CacheBytes: 64 << 20, Seed: 1,
	})

	// Warm processor caches, connection pools, and frame-slab pools so the
	// measurements see the steady state, not dials and first-touch fetches.
	ctx := context.Background()
	for _, cl := range []grouting.Client{local, remote} {
		for _, q := range qs {
			if _, err := cl.Execute(ctx, q); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return local, remote, qs
}

// BenchmarkClientExecuteTCP reports the steady-state per-query cost of the
// binary-framed TCP path side by side with the virtual-time baseline —
// allocs/op is the headline number the zero-alloc wire protocol is judged
// by.
func BenchmarkClientExecuteTCP(b *testing.B) {
	local, remote, qs := allocBenchSetup(b)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		c    grouting.Client
	}{{"virtual-time", local}, {"tcp", remote}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := tc.c.Execute(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// tcpAllocBudget is the steady-state per-query allocation ratchet for the
// loopback TCP path: client encode, server decode, routing, execution,
// response encode, client decode — two hops (client→router→processor), all
// in this process. The warmed virtual-time path runs alloc-free (its engine
// reuses every buffer and there is no wire), so "within 2x of virtual time"
// is vacuous; the budget is the operative bound. Measured steady state is
// 7 allocs/query (51 under gob framing; 17 while each of the four received
// frames was copied into a pooled slab whose release escaped; 9 while every
// processor reply carried its cache counters, one heap copy written by the
// processor and one read by the router) — the residue
// is per-request goroutine spawns, pool misses under connection
// concurrency, and the freshly-allocated Result internals that make
// envelope recycling safe. Tighten the budget if the codec improves; never
// loosen it without a pprof diff showing where the new allocations come
// from.
const tcpAllocBudget = 16

// TestTCPAllocBudget pins the wire protocol's allocation overhead: a
// steady-state query over loopback TCP must stay within 2x the virtual-time
// path or the absolute budget, whichever is larger. Catches any regression
// that reintroduces per-call buffers, reflection, or descriptor traffic in
// the codec.
func TestTCPAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	local, remote, qs := allocBenchSetup(t)
	ctx := context.Background()

	perQuery := func(cl grouting.Client) float64 {
		return testing.AllocsPerRun(10, func() {
			for _, q := range qs {
				if _, err := cl.Execute(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(qs))
	}

	localAllocs := perQuery(local)
	tcpAllocs := perQuery(remote)
	t.Logf("allocs/query: virtual-time = %.1f, tcp = %.1f", localAllocs, tcpAllocs)
	limit := 2 * localAllocs
	if limit < tcpAllocBudget {
		limit = tcpAllocBudget
	}
	if tcpAllocs > limit {
		t.Errorf("TCP path allocates %.1f/query, above the budget of %.1f (virtual-time path: %.1f)",
			tcpAllocs, limit, localAllocs)
	}
}

// ioCrossings reads this process's read(2)+write(2) family call count from
// /proc/self/io — what strace -c would total, without strace.
func ioCrossings(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no per-process I/O accounting here: %v", err)
	}
	var total int64
	found := 0
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok || (name != "syscr" && name != "syscw") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			t.Skipf("unreadable /proc/self/io line %q", line)
		}
		total += n
		found++
	}
	if found != 2 {
		t.Skip("/proc/self/io has no syscr/syscw")
	}
	return total
}

// tcpCrossingsBudget bounds the read/write calls one warmed point query
// costs across the whole loopback deployment, which lives in this process:
// the query crosses four frames (client → router → processor and back),
// each written once and read once, so 8 — 6 on the daemons' side, 2 on the
// client's. The margin is for the rare wake-up that finds its bytes already
// taken. It was 12 while every idle wake-up paid a second read for EAGAIN.
const tcpCrossingsBudget = 8.5

// TestTCPCrossingsBudget pins the kernel crossings per query next to the
// allocations per query: the ledger in README's performance log, measured
// instead of pasted. Must not run in parallel with anything.
func TestTCPCrossingsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("crossings measurement")
	}
	_, remote, qs := allocBenchSetup(t)
	ctx := context.Background()
	const passes = 10
	before := ioCrossings(t)
	for i := 0; i < passes; i++ {
		for _, q := range qs {
			if _, err := remote.Execute(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	perQuery := float64(ioCrossings(t)-before) / float64(passes*len(qs))
	t.Logf("%.2f read/write calls per query", perQuery)
	if perQuery > tcpCrossingsBudget {
		t.Errorf("a hot point query costs %.2f read/write calls, above the budget of %.1f", perQuery, tcpCrossingsBudget)
	}
}

// durableShards starts two in-process durable storage shards (WAL on, fsync
// off — the benchmark's read_write shape) and returns their addresses.
func durableShards(t *testing.T) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < 2; i++ {
		ss, err := grouting.ServeStorageDurable("127.0.0.1:0", t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ss.Close() })
		addrs = append(addrs, ss.Addr())
	}
	return addrs
}

// loadCrossingsBudget bounds the read/write calls the bulk loader costs per
// graph record on two durable shards at R=2, dial and pings included. The
// records travel ≈ 300 to an OpMultiPut frame, and a frame costs a shard its
// four crossings plus one WAL write however many records it carries: measured
// 0.04. It was 10.0 while every record was its own single-key put round
// trip and its own WAL write on each of its two replicas — 2 × (4 + 1).
const loadCrossingsBudget = 0.5

// TestLoadCrossingsBudget regenerates the loader's row of README's crossings
// ledger. Must not run in parallel with anything.
func TestLoadCrossingsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("crossings measurement")
	}
	g := grouting.GenerateDataset(grouting.WebGraph, 0.04, 7)
	storageAddrs := durableShards(t)
	before := ioCrossings(t)
	if err := grouting.LoadStorageReplicated(context.Background(), g, storageAddrs, 2); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(ioCrossings(t)-before) / float64(g.NumNodes())
	t.Logf("%.3f read/write calls per record (%d records, R=2, two durable shards)", perRecord, g.NumNodes())
	if perRecord > loadCrossingsBudget {
		t.Errorf("loading costs %.2f read/write calls per record, above the budget of %.1f", perRecord, loadCrossingsBudget)
	}
}

// mutateCrossingsBudget bounds the read/write calls one warmed edge mutation
// costs across an in-process R=2 durable deployment with three processors:
// client → router and back (4), one pre-image read round (one OpMultiGet per
// preferred shard: 4 when both endpoints prefer the same shard, 8 when they
// split — 5.5 over the pairs below) and one OpMultiPut frame per shard
// carrying both rewritten records (2 × (4 + 1 WAL write)). Invalidations cost
// no frame of their own: they ride the next query to each processor, and this
// test sends none, so every 128th mutation finds the three backlogs past their
// bound and delivers them itself (3 × 4, ≈ 0.1 per mutation). Measured 19.6,
// plus the same margin as the query budget. It was 34.0 while the pre-images
// were two serial single-key gets (8) and every mutation fanned an OpEvict out to
// every processor (3 × 4), and 44.0 while each record also went to each
// replica as its own single-key put.
const mutateCrossingsBudget = 20.1

// upsertCrossingsBudget is the same ledger for a node upsert: one record, so
// one pre-image frame (4) and the same two OpMultiPut frames (10) behind the
// client and router's 4 — 18, and a backlog flush every 256th upsert.
const upsertCrossingsBudget = 18.6

// TestMutateCrossingsBudget regenerates the mutation rows of the ledger by
// toggling edges that do not exist in the loaded graph, then re-upserting
// their endpoints. Must not run in parallel with anything.
func TestMutateCrossingsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("crossings measurement")
	}
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	ctx := context.Background()
	cl, _ := startLoopback(t, g, grouting.Config{
		Processors: 3, StorageServers: 2, StorageReplicas: 2, StorageDir: t.TempDir(),
		Policy: grouting.PolicyHash, CacheBytes: 64 << 20,
	})
	var pairs [][2]grouting.NodeID
	for u := grouting.NodeID(0); len(pairs) < 16; u += 2 {
		if g.Exists(u) && g.Exists(u+1) && !g.HasEdge(u, u+1) {
			pairs = append(pairs, [2]grouting.NodeID{u, u + 1})
		}
	}
	toggle := func() {
		for _, p := range pairs {
			if err := cl.AddEdge(ctx, p[0], p[1], ""); err != nil {
				t.Fatal(err)
			}
			if err := cl.RemoveEdge(ctx, p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	upsert := func() {
		for _, p := range pairs {
			for _, u := range p {
				if err := cl.UpsertNode(ctx, u, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	const passes = 10
	for _, row := range []struct {
		what   string
		pass   func()
		budget float64
	}{
		{"mutation", toggle, mutateCrossingsBudget},
		{"upsert", upsert, upsertCrossingsBudget},
	} {
		row.pass() // dial every pooled connection the write path uses
		before := ioCrossings(t)
		for i := 0; i < passes; i++ {
			row.pass()
		}
		per := float64(ioCrossings(t)-before) / float64(passes*len(pairs)*2)
		t.Logf("%.2f read/write calls per %s", per, row.what)
		if per > row.budget {
			t.Errorf("one %s costs %.2f read/write calls, above the budget of %.1f", row.what, per, row.budget)
		}
	}
}

// readAfterWriteCrossingsBudget bounds the read/write calls of a point query
// routed right after a write rewrote the records its 1-hop ball holds, on the
// deployment of the mutation rows: the write's edits ride the query's frame
// and update the processor's cached copies in place, so the read costs what
// a warm one does — tcpCrossingsBudget. A processor that dropped the
// records instead refetches them, + 4 per shard frame.
const readAfterWriteCrossingsBudget = tcpCrossingsBudget

// byQueryID routes a query to processor ID mod the tier size, so a test can
// send one node's query to every processor in turn.
type byQueryID struct{}

func (byQueryID) Name() string                           { return "by-query-id" }
func (byQueryID) Pick(q grouting.Query, loads []int) int { return q.ID % len(loads) }
func (byQueryID) Observe(grouting.Query, int)            {}
func (byQueryID) DecisionUnits() int                     { return 1 }

var policyByQueryID = grouting.RegisterStrategy("by-query-id", func(grouting.StrategyResources) (grouting.Strategy, error) {
	return byQueryID{}, nil
})

// TestReadAfterWriteCrossings regenerates the read-after-write row of the
// ledger: each pass toggles one edge u->u+1, then reads u's 1-hop ball once
// on each of three processors warmed on it; only the reads are counted. Must
// not run in parallel with anything.
func TestReadAfterWriteCrossings(t *testing.T) {
	if testing.Short() {
		t.Skip("crossings measurement")
	}
	g := grouting.GenerateDataset(grouting.WebGraph, 0.02, 7)
	ctx := context.Background()
	const procs = 3
	cl, _ := startLoopback(t, g, grouting.Config{
		Processors: procs, StorageServers: 2, StorageReplicas: 2, StorageDir: t.TempDir(),
		Policy: policyByQueryID, CacheBytes: 64 << 20,
	})
	u := grouting.NodeID(0)
	for ; !g.Exists(u) || !g.Exists(u+1) || g.HasEdge(u, u+1); u += 2 {
	}
	toggle := func(i int) {
		t.Helper()
		var err error
		if i%2 == 0 {
			err = cl.AddEdge(ctx, u, u+1, "")
		} else {
			err = cl.RemoveEdge(ctx, u, u+1)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	readAll := func() {
		t.Helper()
		for p := range procs {
			q := grouting.Query{ID: p, Type: grouting.NeighborAgg, Node: u, Hops: 1, Dir: grouting.Out}
			if _, err := cl.Execute(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm every processor on the ball with the edge and without it, which
	// also dials every pooled connection the path uses.
	readAll()
	toggle(0)
	readAll()
	// Reading /proc/self/io is itself a couple of read calls; each window
	// is charged what an empty one measures.
	probe := ioCrossings(t)
	empty := ioCrossings(t) - probe
	const passes = 20
	var crossings int64
	for i := 1; i <= passes; i++ {
		toggle(i)
		before := ioCrossings(t)
		readAll()
		crossings += ioCrossings(t) - before - empty
	}
	per := float64(crossings) / float64(passes*procs)
	t.Logf("%.2f read/write calls per read after a write", per)
	if per > readAfterWriteCrossingsBudget {
		t.Errorf("a read after a write costs %.2f read/write calls, above the budget of %.1f", per, readAfterWriteCrossingsBudget)
	}
}
