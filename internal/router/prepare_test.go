package router

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/query"
)

// downEmbedder is a provider that cannot serve coordinates.
type downEmbedder struct{}

var errDown = errors.New("coordinate service down")

func (downEmbedder) Name() string    { return "down" }
func (downEmbedder) Dimensions() int { return 4 }
func (downEmbedder) Embed(context.Context, []graph.NodeID) ([][]float32, error) {
	return nil, errDown
}

func prepareGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Preset(gen.WebGraph, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustLookup(t *testing.T, name string) Registration {
	t.Helper()
	reg, ok := LookupName(name)
	if !ok {
		t.Fatalf("policy %q not registered", name)
	}
	return reg
}

// An embedding policy cannot route without coordinates: a provider that
// fails refuses construction.
func TestPrepareRefusesEmbedOnFailedProvider(t *testing.T) {
	spec := NetworkTables
	spec.Provider = downEmbedder{}
	if _, err := Prepare(prepareGraph(t), mustLookup(t, "embed"), 3, spec); !errors.Is(err, errDown) {
		t.Fatalf("Prepare(embed, failing provider) = %v; want the provider's error", err)
	}
}

// A policy that routes without coordinates starts degraded on a failed
// provider: its landmark tables are built, its strategy constructs, and
// KNNReady answers query.ErrUnavailable wrapping the provider's failure.
func TestPrepareDegradedStart(t *testing.T) {
	spec := NetworkTables
	spec.Provider = downEmbedder{}
	reg := mustLookup(t, "landmark")
	tab, err := Prepare(prepareGraph(t), reg, 3, spec)
	if err != nil {
		t.Fatalf("landmark policy refused a failed provider: %v", err)
	}
	if tab.Index == nil || tab.Assignment == nil || tab.Embedding != nil {
		t.Fatalf("degraded tables: index %t, assignment %t, embedding %t; want landmark tables and no coordinates",
			tab.Index != nil, tab.Assignment != nil, tab.Embedding != nil)
	}
	if _, err := reg.New(tab.Resources(DefaultLoadFactor, DefaultAlpha)); err != nil {
		t.Fatalf("landmark strategy over degraded tables: %v", err)
	}
	err = tab.KNNReady(reg.Name)
	if !errors.Is(err, query.ErrUnavailable) || !errors.Is(err, errDown) {
		t.Fatalf("KNNReady = %v; want ErrUnavailable wrapping %q", err, errDown)
	}
	if err := (Coords{}).KNNReady("hash"); !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("KNNReady without coordinates = %v; want ErrUnavailable", err)
	}
}

// With PreprocessFraction < 1 the index is built over a sample and every
// left-out node is incorporated afterwards, in id order, over the full
// graph: the tables equal that replay, and no left-out node next to a
// reached node stays unreached.
func TestPrepareFractionIncorporatesLeftOut(t *testing.T) {
	g := prepareGraph(t)
	spec := NetworkTables
	spec.Seed, spec.PreprocessFraction = 5, 0.5
	tab, err := Prepare(g, mustLookup(t, "landmark"), 3, spec)
	if err != nil {
		t.Fatal(err)
	}

	sub, leftOut := inducedFraction(g, spec.PreprocessFraction, spec.Seed)
	if len(leftOut) == 0 || len(leftOut) == g.NumNodes() {
		t.Fatalf("%d of %d nodes left out: the fraction path is not exercised", len(leftOut), g.NumNodes())
	}
	want := landmark.BuildIndex(sub, landmark.Select(sub, spec.Landmarks, spec.MinSeparation), 0)
	for _, u := range leftOut {
		want.IncorporateNode(g, u)
	}
	if !reflect.DeepEqual(tab.Index, want) {
		t.Fatal("index differs from a build over the sample plus incorporation of the left-out nodes")
	}

	left := make(map[graph.NodeID]bool, len(leftOut))
	for _, u := range leftOut {
		left[u] = true
	}
	// A neighbour counts once its distance is final before u's turn: a
	// sampled node (BFS) or a left-out node with a smaller id.
	reachedBefore := func(u, w graph.NodeID) bool {
		return tab.Index.Dist(0, w) != landmark.Inf && (!left[w] || w < u)
	}
	reached := 0
	for _, u := range leftOut {
		if tab.Index.Dist(0, u) != landmark.Inf {
			reached++
			continue
		}
		for _, edges := range [][]graph.Edge{g.OutEdges(u), g.InEdges(u)} {
			for _, e := range edges {
				if reachedBefore(u, e.To) {
					t.Fatalf("left-out node %d unreached though its neighbour %d was reached before it", u, e.To)
				}
			}
		}
	}
	if reached == 0 {
		t.Fatal("no left-out node was reached: nothing was incorporated")
	}
}

// Two builds from one spec give identical tables.
func TestPrepareDeterministic(t *testing.T) {
	g := prepareGraph(t)
	spec := NetworkTables
	spec.Seed = 9
	reg := mustLookup(t, "embed")
	a, err := Prepare(g, reg, 3, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare(g, reg, 3, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Index, b.Index) || !reflect.DeepEqual(a.Assignment, b.Assignment) ||
		!reflect.DeepEqual(a.Embedding, b.Embedding) {
		t.Fatal("two Prepare calls with one spec built different tables")
	}
	if a.Stats.Landmarks != b.Stats.Landmarks || a.Stats.IndexBytes != b.Stats.IndexBytes ||
		a.Stats.LandmarkBytes != b.Stats.LandmarkBytes || a.Stats.EmbedBytes != b.Stats.EmbedBytes {
		t.Fatalf("sizes differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.EmbedBytes == 0 || a.Stats.Landmarks < 2 {
		t.Fatalf("stats not filled: %+v", a.Stats)
	}
	if err := a.KNNReady(reg.Name); err != nil {
		t.Fatalf("KNNReady with a built embedding: %v", err)
	}
}

// A baseline policy builds no landmark tables and needs no graph; a
// provider's table is then used as-is, so KNearest works under it. The
// smart policies refuse a missing graph and one too small for two
// landmarks.
func TestPrepareInputs(t *testing.T) {
	g := prepareGraph(t)
	spec := NetworkTables
	built, err := Prepare(g, mustLookup(t, "embed"), 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Provider = embed.NewFileProvider(built.Embedding)
	tab, err := Prepare(nil, mustLookup(t, "hash"), 2, spec)
	if err != nil {
		t.Fatalf("hash without a graph: %v", err)
	}
	if tab.Embedding != built.Embedding || tab.Index != nil || tab.Assignment != nil ||
		tab.Stats.EmbedBytes != built.Embedding.StorageBytes() {
		t.Fatalf("hash over a provider: embedding %p (want %p), index %t, assignment %t, stats %+v",
			tab.Embedding, built.Embedding, tab.Index != nil, tab.Assignment != nil, tab.Stats)
	}

	if _, err := Prepare(nil, mustLookup(t, "landmark"), 2, NetworkTables); err == nil {
		t.Error("landmark policy prepared without a graph")
	}
	if _, err := Prepare(gen.Ring(3), mustLookup(t, "landmark"), 2, NetworkTables); err == nil {
		t.Error("landmark policy prepared over a graph too small for two landmarks")
	}
}
