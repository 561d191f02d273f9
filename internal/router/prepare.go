package router

import (
	"context"
	"fmt"
	"time"

	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/query"
	"repro/internal/xrand"
)

// TableSpec is what Prepare builds: |L| landmarks at least MinSeparation
// hops apart (Section 3.4.1), a Dimensions-wide embedding (Section 3.4.2),
// Seed for the stochastic choices, and Provider's coordinates in place of
// embed.Build when it is set. PreprocessFraction < 1 builds the landmark
// index on an induced subgraph of that fraction of the nodes and
// incorporates the rest incrementally (Figure 10); 0 reads as 1.
type TableSpec struct {
	Landmarks, MinSeparation, Dimensions int
	Seed                                 int64
	PreprocessFraction                   float64
	Provider                             embed.Embedder
}

// NetworkTables is the networked router's fixed table shape, where the
// virtual-time system defaults to the paper's optima of 96, 3 and 10. A
// virtual-time system given these values builds the router's tables.
var NetworkTables = TableSpec{Landmarks: 32, MinSeparation: 2, Dimensions: 8}

// PrepStats records preprocessing wall time and router-side storage — the
// quantities of Tables 2 and 3.
type PrepStats struct {
	// SelectTime covers landmark selection.
	SelectTime time.Duration
	// BFSTime covers the landmarks' distance fields: landmark.BuildIndex's
	// multi-source BFS, one sweep per 64 landmarks.
	BFSTime time.Duration
	// EmbedNodeTime covers the whole coordinate table: embed.Build, or the
	// provider's materialisation.
	EmbedNodeTime time.Duration
	// LandmarkBytes is the router's d(u,p) table size; EmbedBytes the
	// coordinate table size; IndexBytes the BFS distance fields.
	LandmarkBytes int64
	EmbedBytes    int64
	IndexBytes    int64
	// GraphBytes is the encoded graph size in the storage tier, filled by
	// the caller that loads it.
	GraphBytes int64
	// Landmarks is the number of landmarks actually selected.
	Landmarks int
}

// Coords is the coordinate table KNearest ranks by, with the provider
// failure that left it nil at a degraded start — the part of the tables a
// networked router keeps once its strategy is built.
type Coords struct {
	Embedding *embed.Embedding
	// Source names where Embedding came from (embed.SourceName), for Stats.
	Source string
	// EmbedErr is the provider's materialisation failure when the policy
	// could start without coordinates.
	EmbedErr error
}

// KNNReady reports whether KNearest queries can be answered: there is a
// coordinate table. The error is typed query.ErrUnavailable — a missing or
// degraded embedding is a service condition, not a bad query — and also
// wraps the provider failure when that is why the table is missing.
func (c Coords) KNNReady(policy string) error {
	if c.Embedding != nil {
		return nil
	}
	if c.EmbedErr != nil {
		return fmt.Errorf("router: k-nearest needs an embedding, provider failed: %w: %w", c.EmbedErr, query.ErrUnavailable)
	}
	return fmt.Errorf("router: k-nearest needs an embedding (policy %q builds none and no provider is set): %w",
		policy, query.ErrUnavailable)
}

// Tables are the routing tables one deployment routes by.
type Tables struct {
	Coords
	// Index is the landmark BFS distance index and Assignment the landmark
	// node→processor table; both nil below PrepLandmarks.
	Index      *landmark.Index
	Assignment *landmark.Assignment
	Stats      PrepStats

	g     *graph.Graph
	procs int
	seed  int64
}

// Prepare builds the tables reg declares over g for procs processors. It
// materialises spec.Provider when one is set; at PrepLandmarks and above it
// selects landmarks, builds their BFS index and assigns them to processors,
// and at PrepEmbedding it builds the embedding unless the provider supplied
// one. A provider failure refuses construction when the policy routes by
// coordinates; otherwise it is kept in EmbedErr for KNearest to report.
func Prepare(g *graph.Graph, reg Registration, procs int, spec TableSpec) (*Tables, error) {
	if reg.Prep >= PrepLandmarks && g == nil {
		return nil, fmt.Errorf("router: policy %q needs a graph for preprocessing", reg.Name)
	}
	t := &Tables{Coords: Coords{Source: embed.SourceName(spec.Provider)}, g: g, procs: procs, seed: spec.Seed}
	if spec.Provider != nil {
		t0 := time.Now()
		e, err := embed.Materialize(context.Background(), spec.Provider, g)
		switch {
		case err == nil:
			t.Embedding = e
			t.Stats.EmbedNodeTime = time.Since(t0)
			t.Stats.EmbedBytes = e.StorageBytes()
		case reg.Prep >= PrepEmbedding:
			return nil, fmt.Errorf("router: embed provider %q: %w", spec.Provider.Name(), err)
		default:
			t.EmbedErr = err
		}
	}
	if reg.Prep < PrepLandmarks {
		return t, nil
	}

	prepGraph := g
	var leftOut []graph.NodeID
	if f := spec.PreprocessFraction; f > 0 && f < 1 {
		prepGraph, leftOut = inducedFraction(g, f, spec.Seed)
	}
	t0 := time.Now()
	lms := landmark.Select(prepGraph, spec.Landmarks, spec.MinSeparation)
	t.Stats.SelectTime = time.Since(t0)
	if len(lms) < 2 {
		return nil, fmt.Errorf("router: selected only %d landmarks (graph too small or disconnected)", len(lms))
	}
	t.Stats.Landmarks = len(lms)

	t0 = time.Now()
	t.Index = landmark.BuildIndex(prepGraph, lms, 0)
	t.Stats.BFSTime = time.Since(t0)

	// Incorporate the nodes excluded from preprocessing through the
	// incremental path, in id order (standing in for arrival order), using
	// the *full* graph's adjacency — exactly the paper's update rule:
	// "we incrementally compute the necessary information for the new
	// nodes, as they are being added, without changing anything on the
	// preprocessed information of the earlier nodes." A single pass leaves
	// the distances deliberately stale; that staleness is what Figure 10
	// measures.
	for _, u := range leftOut {
		t.Index.IncorporateNode(g, u)
	}

	t.Assignment = landmark.Assign(t.Index, procs)
	t.Stats.LandmarkBytes = t.Assignment.StorageBytes()
	t.Stats.IndexBytes = t.Index.StorageBytes()

	if reg.Prep >= PrepEmbedding && t.Embedding == nil {
		t0 = time.Now()
		e, err := embed.Build(g, t.Index, embed.Options{Dimensions: spec.Dimensions, Seed: spec.Seed})
		if err != nil {
			return nil, err
		}
		t.Embedding = e
		t.Stats.EmbedNodeTime = time.Since(t0)
		t.Stats.EmbedBytes = e.StorageBytes()
	}
	return t, nil
}

// Resources hands the tables to a strategy constructor, with the routing
// parameters the caller runs: Eq 3/7's LoadFactor and Eq 5's α.
func (t *Tables) Resources(loadFactor, alpha float64) Resources {
	return Resources{Procs: t.procs, Seed: t.seed, LoadFactor: loadFactor, Alpha: alpha,
		Graph: t.g, Index: t.Index, Assignment: t.Assignment, Embedding: t.Embedding}
}

// inducedFraction returns a copy of g induced on a uniformly sampled
// fraction of its live nodes (same node-id space; unsampled ids are
// tombstoned) plus the list of left-out nodes in id order.
func inducedFraction(g *graph.Graph, fraction float64, seed int64) (*graph.Graph, []graph.NodeID) {
	rng := xrand.New(seed ^ 0x517cc1b727220a95)
	n := g.MaxNodeID()
	keep := make([]bool, n)
	var leftOut []graph.NodeID
	for u := range n {
		if g.Exists(u) {
			if keep[u] = rng.Float64() < fraction; !keep[u] {
				leftOut = append(leftOut, u)
			}
		}
	}
	sub := graph.NewWithCapacity(int(n))
	sub.AddNodes(int(n))
	for u := range n {
		if !keep[u] {
			// No edge reaches an unsampled id, so tombstoning it in id
			// order leaves the sampled adjacency untouched.
			_ = sub.RemoveNode(u)
			continue
		}
		for _, e := range g.OutEdges(u) {
			if e.To < n && keep[e.To] {
				sub.AddEdgeFast(u, e.To)
			}
		}
	}
	return sub, leftOut
}
