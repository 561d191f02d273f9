package rpc

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/traverse"
)

// graphBackend is the storage tier in process: a cache step's misses read
// from the graph, cut as storage cuts them.
type graphBackend struct{ g *graph.Graph }

func (b graphBackend) Read(ids []graph.NodeID, dir graph.Direction, dst [][]byte, _ cache.Counts) error {
	for i, id := range ids {
		dst[i] = nil
		if b.g.Exists(id) {
			dst[i] = gstore.Project(gstore.Encode(nil, gstore.RecordOf(b.g, id)), dir)
		}
	}
	return nil
}

func (graphBackend) Heat([]graph.NodeID) {}

// replayFetcher is netFetcher without the sockets: one processor's cache in
// front of the graph, through the step both engines run.
type replayFetcher struct {
	cache *cache.Processor
	b     graphBackend
	sc    cache.Scratch
	hits  *int // of the whole tier
}

func (f *replayFetcher) Fetch(ids []graph.NodeID, dir graph.Direction) ([]gstore.FetchResult, error) {
	recs, n, err := f.cache.Step(&f.sc, f.b, ids, dir)
	*f.hits += n.Hits
	return recs, err
}

func (f *replayFetcher) Expanded(int) {}

// byHotspot routes by the workload's own label: every query of a hotspot to
// one processor, which no router can know — the reuse there is to capture.
type byHotspot struct{ *router.Hash }

func (byHotspot) Pick(q query.Query, loads []int) int { return q.Hotspot % len(loads) }

// replayHits runs qs through a router deciding with zero loads and procs
// processors that do what ProcessorServer.execute does — run the kernel,
// whose first read is the query node — and returns the cache hits of the
// tier.
func replayHits(t *testing.T, g *graph.Graph, strat router.Strategy, qs []query.Query, procs int, cacheBytes int64) int {
	t.Helper()
	r, err := router.New(strat, procs, false)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	fetchers := make([]*replayFetcher, procs)
	for p := range fetchers {
		fetchers[p] = &replayFetcher{cache: cache.NewProcessor(cacheBytes), b: graphBackend{g}, hits: &hits}
	}
	var kernel traverse.Scratch
	for _, q := range qs {
		p := r.Route(q)
		r.Next(p)
		r.Done(p, 1)
		f := fetchers[p]
		f.sc.Reset()
		if _, err := kernel.Run(f, q, traverse.LabelFilter{}); err != nil {
			t.Fatal(err)
		}
	}
	return hits
}

// Reuse captured: of the cache hits a router that knew each query's hotspot
// would get, embed routing as BuildStrategyEmbed builds it gets nearly all,
// and well more than hashing does. This is the repository benchmark's
// point_cold in process and in miniature — three processors, a total cache
// of one eighth of the stored bytes, r = h = 2 — where the number can be
// asserted instead of observed. The embedding's neighbour-averaging pass is
// what it holds: over the Simplex Downhill rows embed routing got 2,870 hits
// here without it, against the oracle's 3,099 and hashing's 2,136 (seeds 2
// and 3: 2,775 / 3,011 / 2,037 and 2,771 / 3,087 / 1,983), and 3,154 (3,166,
// 3,166) with it; over the landmark-MDS rows that replaced them, 3,175
// (3,098, 3,264). Those counts inserted each miss before probing the next
// key of its batch, which evicts what a repeated level is about to ask for;
// the processors probe a whole batch first. Through their step embed gets
// 5,260 hits, the oracle 5,104 and hashing 3,275 (seeds 2 and 3: 5,090 /
// 4,902 / 3,157 and 5,270 / 4,975 / 2,957) when each query's node is probed
// before the kernel runs, which hits it again; since the processor's
// existence check rides the kernel's own first read, 4,466 / 4,310 / 2,480
// (seeds 2 and 3: 4,302 / 4,115 / 2,369 and 4,477 / 4,180 / 2,160).
func TestEmbedCapturesHotspotReuse(t *testing.T) {
	const procs, seed = 3, 1
	g, err := gen.Preset(gen.WebGraph, 0.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	var stored int64
	for _, u := range g.Nodes() {
		stored += int64(len(gstore.Encode(nil, gstore.RecordOf(g, u))))
	}
	qs := query.Hotspot(g, query.WorkloadSpec{NumHotspots: 80, QueriesPerHotspot: 10, R: 2, H: 2, Seed: seed})
	hits := func(strat router.Strategy) int { return replayHits(t, g, strat, qs, procs, stored/8/procs) }
	embed, _, err := BuildStrategyEmbed("embed", g, procs, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	he, ho, hh := hits(embed), hits(byHotspot{router.NewHash()}), hits(router.NewHash())
	t.Logf("cache hits over %d queries: embed %d, by hotspot %d, hash %d", len(qs), he, ho, hh)
	if float64(he) < 0.95*float64(ho) {
		t.Errorf("embed routing gets %d hits, under 0.95 of the %d routing by hotspot gets", he, ho)
	}
	if float64(he) < 1.3*float64(hh) {
		t.Errorf("embed routing gets %d hits, under 1.3 times the %d hashing gets", he, hh)
	}
}
