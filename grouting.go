// Package grouting is a Go implementation of gRouting — the smart query
// routing framework for distributed graph querying with decoupled storage
// described in:
//
//	Arijit Khan, Gustavo Segovia, Donald Kossmann.
//	"On Smart Query Routing: For Distributed Graph Querying with
//	Decoupled Storage." USENIX ATC 2018 (arXiv:1611.03959).
//
// The system decouples query processing from graph storage: the graph
// lives in a sharded in-memory key-value store (hash partitioned, as
// RAMCloud does), a tier of stateless query processors answers h-hop
// traversal queries out of per-processor LRU caches, and a query router in
// front decides — per query — which processor should handle it. The smart
// routing strategies (landmark and graph-embedding based) send successive
// queries on nearby nodes to the same processor, so the overlapping parts
// of their h-hop neighbourhoods are already cached there.
//
// # Quick start
//
// Every deployment is driven through the transport-agnostic [Client]
// interface — Execute, ExecuteBatch and the pipelined ExecuteStream, all
// context-aware. The in-process virtual-time engine is one transport:
//
//	g := grouting.GenerateDataset(grouting.WebGraph, 0.1, 42)
//	sys, err := grouting.New(g, grouting.WithPolicy(grouting.PolicyEmbed))
//	if err != nil { ... }
//	c, err := grouting.NewLocalClient(sys)
//	res, err := c.Execute(ctx, grouting.Query{
//		Type: grouting.NeighborAgg, Node: 123, Hops: 2, Dir: grouting.Out,
//	})
//
// # Same code, two transports
//
// A real networked deployment serves the identical interface, so client
// code is written once against [Client] and runs unmodified on either:
//
//	func countNeighbours(ctx context.Context, c grouting.Client, n grouting.NodeID) (int, error) {
//		res, err := c.Execute(ctx, grouting.Query{
//			Type: grouting.NeighborAgg, Node: n, Hops: 2, Dir: grouting.Out,
//		})
//		return res.Count, err
//	}
//
//	local, _ := grouting.NewLocalClient(sys)                  // virtual-time engine
//	remote, _ := grouting.Dial(ctx, "10.0.0.7:7200")          // TCP cluster (ServeStorage/
//	                                                          // ServeProcessorWith/ServeRouter)
//
// Both transports validate queries the same way (Query.Validate) and
// classify failures into the same typed errors — [ErrBadQuery],
// [ErrUnknownNode], [ErrUnavailable] — and both honour context
// cancellation and deadlines (the networked router forwards the caller's
// deadline to the processors).
//
// # Routing strategies are an extension point
//
// The routing policies are backed by an open registry: implement
// [Strategy] (Pick/Observe/DecisionUnits, optionally [DistanceAware]),
// register it with [RegisterStrategy], and the returned [Policy] works
// everywhere a built-in does — [Config].Policy (or [WithPolicy]) locally,
// [RouterSpec] over TCP, the daemons' -policy flags, and
// [ParsePolicy]/[Policy.String] round-trips. A strategy decides from the
// query stream and the per-processor loads alone, as the paper's routers
// do.
//
// # Observability
//
// Every Client reports [Client.Stats]: one snapshot structure
// (per-processor placement counts, cache hit/miss/eviction counters,
// routing-decision-time and queue-depth percentiles) identical across
// transports; groutingd additionally serves it over HTTP (/statsz and
// expvar) when started with -http.
//
// For measurement, [System.RunWorkload] executes a whole workload on the
// virtual clock and reports the paper's figures (throughput, response
// time, cache hit rates). Sessions ([System.NewSession]) remain as the
// lower-level interactive handle the Client wraps.
//
// The package re-exports the building blocks (graph model, workload
// generator, cluster profiles, routing policies) so downstream users never
// import internal packages. Experiment harnesses that regenerate every
// table and figure of the paper live under cmd/grouting-bench.
package grouting

import (
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/simnet"
)

// Graph model (Section 2.1): a labelled directed multigraph storing both
// in- and out-edges per node.
type (
	// Graph is the in-memory labelled directed graph.
	Graph = graph.Graph
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// Edge is one adjacency entry (endpoint + edge label).
	Edge = graph.Edge
	// Direction selects out-edges, in-edges or both for a traversal.
	Direction = graph.Direction
)

// Traversal directions.
const (
	Out  = graph.Out
	In   = graph.In
	Both = graph.Both
)

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// NewGraphWithCapacity returns an empty graph with storage pre-allocated
// for n nodes.
func NewGraphWithCapacity(n int) *Graph { return graph.NewWithCapacity(n) }

// Queries (Section 2.2): the three online h-hop traversal kinds.
type (
	// Query is one online request.
	Query = query.Query
	// Result is a query answer.
	Result = query.Result
	// QueryType enumerates the query kinds.
	QueryType = query.Type
	// WorkloadSpec configures the hotspot workload generator (Section 4.1).
	WorkloadSpec = query.WorkloadSpec
	// Pattern is the subgraph template of a PatternMatch query:
	// variables (optionally labelled, optionally anchored at concrete
	// graph nodes) connected by directed, optionally edge-labelled
	// template edges. Matching counts homomorphisms.
	Pattern = query.Pattern
	// PatternNode is one template variable.
	PatternNode = query.PatternNode
	// PatternEdge is one template edge (From/To index Pattern.Nodes).
	PatternEdge = query.PatternEdge
)

// Query types.
const (
	// NeighborAgg counts (optionally label-filtered) h-hop neighbours.
	NeighborAgg = query.NeighborAgg
	// RandomWalk runs an h-step random walk with restart.
	RandomWalk = query.RandomWalk
	// Reachability answers h-hop reachability via bidirectional BFS.
	Reachability = query.Reachability
	// PatternMatch counts the homomorphic matches of a multi-anchor
	// subgraph template; each anchor's candidate edges are gathered on the
	// processor owning it and joined at the router.
	PatternMatch = query.PatternMatch
	// BoundedReach answers multi-source reachability by partial
	// evaluation: every per-partition subtask expands at most VisitBudget
	// nodes, and the router relaunches boundary frontiers in later waves.
	BoundedReach = query.BoundedReach
	// KNearest returns the K nodes within Hops (undirected) of Node that
	// are nearest to it under the system's embedding: candidate
	// generation runs on the anchor's processor, the exact re-rank at the
	// coordinator. Needs an embedding — PolicyEmbed or WithEmbedProvider.
	KNearest = query.KNearest
)

// MaxKNearest bounds Query.K; Result.Nearest holds that many slots.
const MaxKNearest = query.MaxKNearest

// HotspotWorkload generates the paper's workload: hotspot regions with
// consecutive queries on nearby nodes (Section 4.1).
func HotspotWorkload(g *Graph, spec WorkloadSpec) []Query { return query.Hotspot(g, spec) }

// MixedTypes is the full query mix including the multi-anchor kinds; set
// it as WorkloadSpec.Types to generate pattern-matching and bounded-
// reachability queries alongside the classic traversals.
var MixedTypes = query.MixedTypes

// MixedTypesKNN additionally mixes in KNearest queries — use it on
// systems that hold an embedding (PolicyEmbed or WithEmbedProvider).
var MixedTypesKNN = query.MixedTypesKNN

// Answer computes a query's reference result directly on the in-memory
// graph (the oracle the distributed system must agree with). KNearest
// answers additionally depend on the embedding: use AnswerKNN.
func Answer(g *Graph, q Query) Result { return query.Answer(g, q) }

// AnswerKNN computes a KNearest query's reference result directly on the
// in-memory graph and a coordinate source (System.Embedding, or any
// materialised provider) — the oracle both transports must agree with.
func AnswerKNN(g *Graph, coords CoordSource, q Query) Result { return query.AnswerKNN(g, coords, q) }

// System assembly.
type (
	// Config describes a deployment (tier sizes, routing policy, cache
	// capacity, smart-routing parameters). The zero value uses the paper's
	// defaults: 7 processors, 4 storage servers, Infiniband, embed
	// routing, 4 GB caches, 96 landmarks, 10 dimensions.
	Config = core.Config
	// System is an assembled decoupled deployment over one graph.
	System = core.System
	// Session executes queries interactively with persistent caches.
	Session = core.Session
	// Report summarises a workload run (throughput, response time, cache
	// hits/misses — the quantities the paper's figures plot).
	Report = core.Report
	// Policy selects the routing scheme.
	Policy = core.Policy
	// NetworkProfile is a cluster cost model (latency, bandwidth,
	// per-operation costs) used by the virtual-time engine.
	NetworkProfile = simnet.Profile
)

// Routing policies (Sections 3.3 and 3.4).
const (
	// PolicyNoCache disables processor caches (the no-cache control).
	PolicyNoCache = core.PolicyNoCache
	// PolicyNextReady dispatches to the least-loaded processor.
	PolicyNextReady = core.PolicyNextReady
	// PolicyHash dispatches by node-id modulo hashing (Eq 1).
	PolicyHash = core.PolicyHash
	// PolicyLandmark routes by landmark regions (Section 3.4.1).
	PolicyLandmark = core.PolicyLandmark
	// PolicyEmbed routes by graph embedding (Section 3.4.2) — the paper's
	// best performer and the default.
	PolicyEmbed = core.PolicyEmbed
	// PolicyStableHash routes by rendezvous hashing over the active
	// processor set: the elastic-topology hash baseline, which remaps only
	// ~1/N of the node space when the tier scales instead of reshuffling
	// everything the way modulo hashing does.
	PolicyStableHash = core.PolicyStableHash
)

// NewSystem loads g into the storage tier, runs the preprocessing the
// configured policy needs (landmark BFS, embedding), and returns a
// ready-to-query system.
func NewSystem(g *Graph, cfg Config) (*System, error) { return core.NewSystem(g, cfg) }

// Infiniband returns the 40 Gbps RDMA cluster profile (the paper's primary
// deployment).
func Infiniband() NetworkProfile { return simnet.Infiniband() }

// Ethernet returns the 10 GbE profile (gRouting-E and the coupled
// baselines).
func Ethernet() NetworkProfile { return simnet.Ethernet() }

// Dataset names one of the paper's four graph datasets (Table 1), which
// this package regenerates synthetically at any scale.
type Dataset = gen.Dataset

// The four dataset presets of Table 1.
const (
	WebGraph    = gen.WebGraph
	Friendster  = gen.Friendster
	Memetracker = gen.Memetracker
	Freebase    = gen.Freebase
)

// GenerateDataset builds the named synthetic dataset at the given scale
// (1.0 is the default benchmark size; the paper's originals are listed in
// Table 1 of the README). Identical (dataset, scale, seed) triples produce
// identical graphs. It panics on an unknown dataset name; use gen.Preset
// for error handling.
func GenerateDataset(d Dataset, scale float64, seed int64) *Graph {
	g, err := gen.Preset(d, scale, seed)
	if err != nil {
		panic("grouting: " + err.Error())
	}
	return g
}
