// Command grouting-cli is the client for a networked gRouting deployment:
// it loads a dataset into the storage tier and issues queries through the
// router via the transport-agnostic grouting.Client API.
//
//	# load the (seeded, regenerable) dataset into the storage shards
//	grouting-cli -load -dataset webgraph -graphscale 0.05 \
//	    -storage 127.0.0.1:7001,127.0.0.1:7002
//
//	# run a workload through the router and verify against the oracle
//	grouting-cli -router 127.0.0.1:7200 -dataset webgraph -graphscale 0.05 \
//	    -hotspots 20 -verify
//
//	# pipelined submission: batches of 32 queries per round trip
//	grouting-cli -router 127.0.0.1:7200 -batch 32
//
//	# the system's observability snapshot after the run
//	grouting-cli -router 127.0.0.1:7200 -stats
//
//	# the processing tier's current topology (epoch, member status, the
//	# per-epoch transition log) — watch a scale-out land
//	grouting-cli -router 127.0.0.1:7200 -topology
//
//	# online mutations through the router's write path: upsert nodes
//	# ("id" or "id:label"), add edges ("u->v" or "u->v:label"), remove
//	# edges ("u->v"); comma-separate for one atomic-feeling batch
//	grouting-cli -router 127.0.0.1:7200 -put "900001:city,900001->17:near"
//	grouting-cli -router 127.0.0.1:7200 -del "900001->17"
//
//	# ad-hoc multi-anchor queries: a two-anchor pattern join (anchors 7
//	# and 9 sharing an out-neighbour) and a budgeted multi-source
//	# reachability (partial evaluation, 8 visits per subtask)
//	grouting-cli -router 127.0.0.1:7200 -pattern "7->x,9->x"
//	grouting-cli -router 127.0.0.1:7200 -reach "5+9->1400" -h 6 -budget 8
//
//	# k-nearest by embedding: the 8 nodes within 2 undirected hops of
//	# node 42 nearest to it under the router's embedding (the router
//	# needs PolicyEmbed or groutingd -embed-file)
//	grouting-cli -router 127.0.0.1:7200 -knn 42 -k 8 -h 2
//
//	# generated workloads can include the multi-anchor kinds too
//	grouting-cli -router 127.0.0.1:7200 -mixed -budget 8 -verify
//
//	# what routing strategies are registered (built-ins + user strategies)
//	grouting-cli -policy list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	grouting "repro"
	"repro/internal/cliutil"
	"repro/internal/gen"
	"repro/internal/metrics"
)

func main() {
	var (
		load       = flag.Bool("load", false, "load the dataset into the storage tier and exit")
		storage    = flag.String("storage", "", "comma-separated storage addresses (for -load)")
		replicas   = flag.Int("replicas", 1, "storage replication factor for -load (start processors with the same -storage-replicas)")
		routerAddr = flag.String("router", "", "router address (for querying)")
		policy     = flag.String("policy", "", "'list' prints the strategy registry; any other name resolves and prints it")
		dataset    = flag.String("dataset", "webgraph", "dataset preset")
		graphScale = flag.Float64("graphscale", 0.05, "dataset scale")
		seed       = flag.Int64("seed", 42, "generator seed")
		hotspots   = flag.Int("hotspots", 10, "workload hotspots")
		perHotspot = flag.Int("per-hotspot", 10, "queries per hotspot")
		r          = flag.Int("r", 2, "hotspot radius (hops)")
		h          = flag.Int("h", 2, "traversal depth (hops)")
		batch      = flag.Int("batch", 1, "queries per round trip (1 = one Execute per query)")
		timeout    = flag.Duration("timeout", 0, "overall deadline for the workload (0 = none)")
		verify     = flag.Bool("verify", false, "check every result against the in-memory oracle")
		stats      = flag.Bool("stats", false, "print the system's Stats() snapshot after the run")
		topo       = flag.Bool("topology", false, "print the processing tier's topology (epoch, member status, transition log) and exit")
		put        = flag.String("put", "", `mutations to apply and exit: "id", "id:label", "u->v", "u->v:label", comma-separated`)
		del        = flag.String("del", "", `edges to remove and exit: "u->v", comma-separated (combines with -put in one batch, puts first)`)
		patternF   = flag.String("pattern", "", `ad-hoc pattern query: template edges "u->v[:elabel]" comma-separated; numeric endpoints anchor at that node, names are free variables, "name=label" constrains a variable's node label (e.g. "7->x,9->x,x=paper")`)
		reachF     = flag.String("reach", "", `ad-hoc bounded-reachability query "a1+a2+...->target" (multi-anchor; depth -h, per-subtask budget -budget)`)
		knnF       = flag.String("knn", "", `ad-hoc k-nearest query: anchor node id (candidates within -h undirected hops, ranked by the router's embedding, top -k returned)`)
		k          = flag.Int("k", 8, fmt.Sprintf("result count for -knn (1..%d)", grouting.MaxKNearest))
		budget     = flag.Int("budget", 64, "per-partition visit budget for -reach and -mixed BoundedReach queries")
		mixed      = flag.Bool("mixed", false, "generate the full mixed workload (classic + PatternMatch + BoundedReach) instead of the classic three")
	)
	flag.Parse()

	if *policy != "" {
		if *policy == "list" {
			fmt.Print(policyTable())
			return
		}
		pol, err := grouting.ParsePolicy(*policy)
		exitOn(err)
		fmt.Printf("%s resolves to policy %d (needs landmarks: %v, needs embedding: %v)\n",
			pol, int(pol), pol.NeedsLandmarks(), pol.NeedsEmbedding())
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *topo {
		if *routerAddr == "" {
			exitOn(fmt.Errorf("-topology needs -router"))
		}
		cl, err := grouting.Dial(ctx, *routerAddr)
		exitOn(err)
		defer cl.Close()
		snap, err := cl.Stats(ctx)
		exitOn(err)
		fmt.Print(topologyTable(&snap))
		return
	}

	if *put != "" || *del != "" {
		if *routerAddr == "" {
			exitOn(fmt.Errorf("-put/-del need -router"))
		}
		muts, err := parseMutations(*put, *del)
		exitOn(err)
		cl, err := grouting.Dial(ctx, *routerAddr)
		exitOn(err)
		defer cl.Close()
		n, err := cl.Mutate(ctx, muts)
		if err != nil {
			exitOn(fmt.Errorf("applied %d of %d mutations: %w", n, len(muts), err))
		}
		fmt.Printf("applied %d mutations\n", n)
		return
	}

	if *patternF != "" || *reachF != "" || *knnF != "" {
		if *routerAddr == "" {
			exitOn(fmt.Errorf("-pattern/-reach/-knn need -router"))
		}
		q, err := parseAdHoc(*patternF, *reachF, *knnF, *h, *budget, *k)
		exitOn(err)
		cl, err := grouting.Dial(ctx, *routerAddr)
		exitOn(err)
		defer cl.Close()
		start := time.Now()
		res, err := cl.Execute(ctx, q)
		exitOn(err)
		switch q.Type {
		case grouting.PatternMatch:
			fmt.Printf("%d matches in %v\n", res.Matches, time.Since(start).Round(time.Microsecond))
		case grouting.KNearest:
			fmt.Printf("%d nearest of node %d: %v in %v\n",
				res.Count, q.Node, res.Nearest[:res.Count], time.Since(start).Round(time.Microsecond))
		default:
			fmt.Printf("reachable: %v in %v\n", res.Reachable, time.Since(start).Round(time.Microsecond))
		}
		return
	}

	g, err := gen.Preset(gen.Dataset(*dataset), *graphScale, *seed)
	exitOn(err)

	if *load {
		addrs, err := cliutil.SplitAddrs(*storage)
		exitOn(err)
		if len(addrs) == 0 {
			exitOn(fmt.Errorf("-load needs -storage"))
		}
		start := time.Now()
		exitOn(grouting.LoadStorageReplicated(ctx, g, addrs, *replicas))
		fmt.Printf("loaded %d nodes / %d edges across %d shards (x%d replicas) in %v\n",
			g.NumNodes(), g.NumEdges(), len(addrs), *replicas, time.Since(start).Round(time.Millisecond))
		return
	}

	if *routerAddr == "" {
		fmt.Fprintln(os.Stderr, "need -load or -router")
		flag.Usage()
		os.Exit(2)
	}
	cl, err := grouting.Dial(ctx, *routerAddr)
	exitOn(err)
	defer cl.Close()

	spec := grouting.WorkloadSpec{
		NumHotspots: *hotspots, QueriesPerHotspot: *perHotspot, R: *r, H: *h, Seed: *seed + 1,
	}
	if *mixed {
		spec.Types = grouting.MixedTypes
		spec.VisitBudget = *budget
	}
	qs := grouting.HotspotWorkload(g, spec)
	results := make([]grouting.Result, len(qs))
	start := time.Now()
	if *batch <= 1 {
		for i, q := range qs {
			res, err := cl.Execute(ctx, q)
			exitOn(err)
			results[i] = res
		}
	} else {
		for lo := 0; lo < len(qs); lo += *batch {
			hi := min(lo+*batch, len(qs))
			res, err := cl.ExecuteBatch(ctx, qs[lo:hi])
			exitOn(err)
			copy(results[lo:hi], res)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d queries in %v (%.1f q/s, mean %.2fms)\n",
		len(qs), elapsed.Round(time.Millisecond),
		float64(len(qs))/elapsed.Seconds(),
		elapsed.Seconds()*1000/float64(len(qs)))
	if *verify {
		wrong := 0
		for i, q := range qs {
			if results[i] != grouting.Answer(g, q) {
				wrong++
			}
		}
		if wrong > 0 {
			exitOn(fmt.Errorf("%d of %d results disagree with the oracle", wrong, len(qs)))
		}
		fmt.Println("all results verified against the oracle")
	}
	if *stats {
		snap, err := cl.Stats(ctx)
		exitOn(err)
		fmt.Print(snap.String())
	}
}

// parseAdHoc builds the single query behind -pattern, -reach or -knn
// (mutually exclusive).
func parseAdHoc(pattern, reach, knn string, hops, budget, k int) (grouting.Query, error) {
	set := 0
	for _, s := range []string{pattern, reach, knn} {
		if s != "" {
			set++
		}
	}
	if set > 1 {
		return grouting.Query{}, fmt.Errorf("-pattern, -reach and -knn are mutually exclusive")
	}
	switch {
	case pattern != "":
		return parsePattern(pattern)
	case knn != "":
		return parseKNN(knn, hops, k)
	}
	return parseReach(reach, hops, budget)
}

// parsePattern turns a comma-separated template spec into a PatternMatch
// query. Each part is an edge "u->v" / "u->v:elabel" (numeric endpoints
// anchor at that graph node, other tokens name free variables; repeating a
// token reuses its variable) or a node-label constraint "name=label".
func parsePattern(spec string) (grouting.Query, error) {
	var q grouting.Query
	pat := &grouting.Pattern{}
	idx := make(map[string]int)
	varOf := func(tok string) (int, error) {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return 0, fmt.Errorf("empty endpoint")
		}
		if i, ok := idx[tok]; ok {
			return i, nil
		}
		var pn grouting.PatternNode
		if n, err := strconv.ParseUint(tok, 10, 32); err == nil {
			if n == 0 {
				return 0, fmt.Errorf("node 0 cannot anchor a pattern")
			}
			pn.Anchor = grouting.NodeID(n)
		}
		idx[tok] = len(pat.Nodes)
		pat.Nodes = append(pat.Nodes, pn)
		return idx[tok], nil
	}
	for _, part := range splitSpecs(spec) {
		if !strings.Contains(part, "->") {
			name, label, ok := strings.Cut(part, "=")
			if !ok {
				return q, fmt.Errorf(`-pattern %q: want "u->v[:elabel]" or "name=label"`, part)
			}
			i, err := varOf(name)
			if err != nil {
				return q, fmt.Errorf("-pattern %q: %w", part, err)
			}
			pat.Nodes[i].Label = strings.TrimSpace(label)
			continue
		}
		body, elabel := part, ""
		if i := strings.IndexByte(part, ':'); i >= 0 {
			body, elabel = part[:i], part[i+1:]
		}
		u, v, _ := strings.Cut(body, "->")
		ui, err := varOf(u)
		if err != nil {
			return q, fmt.Errorf("-pattern %q: %w", part, err)
		}
		vi, err := varOf(v)
		if err != nil {
			return q, fmt.Errorf("-pattern %q: %w", part, err)
		}
		pat.Edges = append(pat.Edges, grouting.PatternEdge{From: ui, To: vi, Label: strings.TrimSpace(elabel)})
	}
	q = grouting.Query{Type: grouting.PatternMatch, Pattern: pat, Dir: grouting.Out}
	if anchors := q.AnchorNodes(); len(anchors) > 0 {
		q.Node = anchors[0]
	}
	return q, q.Validate()
}

// parseReach turns "a1+a2+...->target" into a BoundedReach query.
func parseReach(spec string, hops, budget int) (grouting.Query, error) {
	var q grouting.Query
	left, right, ok := strings.Cut(spec, "->")
	if !ok {
		return q, fmt.Errorf(`-reach %q: want "a1+a2+...->target"`, spec)
	}
	target, err := parseNodeID(right)
	if err != nil {
		return q, fmt.Errorf("-reach %q: %w", spec, err)
	}
	var anchors []grouting.NodeID
	for _, tok := range strings.Split(left, "+") {
		a, err := parseNodeID(tok)
		if err != nil {
			return q, fmt.Errorf("-reach %q: %w", spec, err)
		}
		anchors = append(anchors, a)
	}
	q = grouting.Query{
		Type: grouting.BoundedReach, Node: anchors[0], Anchors: anchors,
		Target: target, Hops: hops, VisitBudget: budget, Dir: grouting.Out,
	}
	return q, q.Validate()
}

// parseKNN turns an anchor node id into a KNearest query.
func parseKNN(spec string, hops, k int) (grouting.Query, error) {
	anchor, err := parseNodeID(spec)
	if err != nil {
		return grouting.Query{}, fmt.Errorf("-knn %q: %w", spec, err)
	}
	q := grouting.Query{Type: grouting.KNearest, Node: anchor, Hops: hops, K: k, Dir: grouting.Both}
	return q, q.Validate()
}

// parseMutations turns the -put and -del flag values into one mutation
// batch, puts first. Each comma-separated spec is "id" / "id:label"
// (upsert node) or "u->v" / "u->v:label" (edge); -del accepts edges only.
func parseMutations(put, del string) ([]grouting.Mutation, error) {
	var muts []grouting.Mutation
	for _, spec := range splitSpecs(put) {
		m, err := parseSpec(spec, false)
		if err != nil {
			return nil, fmt.Errorf("-put %q: %w", spec, err)
		}
		muts = append(muts, m)
	}
	for _, spec := range splitSpecs(del) {
		m, err := parseSpec(spec, true)
		if err != nil {
			return nil, fmt.Errorf("-del %q: %w", spec, err)
		}
		muts = append(muts, m)
	}
	return muts, nil
}

func splitSpecs(s string) []string {
	var specs []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			specs = append(specs, part)
		}
	}
	return specs
}

func parseSpec(spec string, del bool) (grouting.Mutation, error) {
	var m grouting.Mutation
	body := spec
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		body, m.Label = spec[:i], spec[i+1:]
	}
	u, v, isEdge := strings.Cut(body, "->")
	switch {
	case del && !isEdge:
		return m, fmt.Errorf(`want "u->v" (only edges can be removed)`)
	case del && m.Label != "":
		return m, fmt.Errorf("remove-edge matches any label; drop the :%s", m.Label)
	case del:
		m.Op = grouting.MutRemoveEdge
	case isEdge:
		m.Op = grouting.MutAddEdge
	default:
		m.Op = grouting.MutUpsertNode
	}
	id, err := parseNodeID(u)
	if err != nil {
		return m, err
	}
	m.Node = id
	if isEdge {
		if m.To, err = parseNodeID(v); err != nil {
			return m, err
		}
	}
	return m, nil
}

func parseNodeID(s string) (grouting.NodeID, error) {
	n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q", s)
	}
	return grouting.NodeID(n), nil
}

// policyTable renders the strategy registry as an aligned table.
func policyTable() string {
	t := metrics.NewTable("policy", "id", "landmarks", "embedding")
	for _, in := range grouting.StrategyRegistry() {
		t.AddRow(in.Name, int(in.Policy), in.NeedsLandmarks, in.NeedsEmbedding)
	}
	return t.String()
}

// topologyTable renders both tiers' membership and the tier-tagged epoch
// transition log from a Stats snapshot.
func topologyTable(snap *grouting.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "processors: epoch %d, %d active of %d slots (policy %s, strategy %s, %d reassigned across transitions)\n",
		snap.Epoch, snap.Processors, len(snap.PerProc), snap.Policy, snap.Strategy, snap.Reassigned)
	t := metrics.NewTable("tier", "slot", "status", "addr", "assigned", "executed", "queue")
	for _, p := range snap.PerProc {
		t.AddRow("proc", p.Proc, p.Status, p.Addr, p.Assigned, p.Executed, p.QueueDepth)
	}
	b.WriteString(t.String())
	if len(snap.PerStorage) > 0 {
		fmt.Fprintf(&b, "storage: epoch %d, %d members, %d replicas per record\n",
			snap.StorageEpoch, len(snap.PerStorage), snap.StorageReplicas)
		// The durability columns show each shard's crash-recovery state:
		// "-" = in-memory only, "fresh" = WAL enabled and started empty,
		// "warm" = recovered its state from its local WAL; dur-ver is the
		// durable record watermark a rejoining shard announces; snaps
		// counts the WAL's compactions since the shard opened.
		ts := metrics.NewTable("tier", "slot", "status", "addr", "keys", "gets", "failovers", "durable", "dur-ver", "wal-kb", "snaps")
		for _, m := range snap.PerStorage {
			durable := m.Durable
			if durable == "" {
				durable = "-"
			}
			ts.AddRow("storage", m.Slot, m.Status, m.Addr, m.Keys, m.Gets, m.Failovers,
				durable, m.DurableVersion, m.WALBytes>>10, m.Snapshots)
		}
		b.WriteString(ts.String())
	}
	if len(snap.Epochs) > 0 {
		te := metrics.NewTable("tier", "epoch", "joined", "left", "failed", "revived", "reassigned")
		for _, e := range snap.Epochs {
			tier := e.Tier
			if tier == "" {
				tier = "proc"
			}
			te.AddRow(tier, e.Epoch, e.Joined, e.Left, e.Failed, e.Revived, e.Reassigned)
		}
		b.WriteString(te.String())
	}
	return b.String()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
