// Package embed implements the paper's second smart routing substrate
// (Section 3.4.2): embedding the graph into a low-dimensional Euclidean
// space so that hop-count distances are approximately preserved.
//
// The paper places the landmarks and then every other node by Simplex
// Downhill searches; this package places them in closed form instead, by
// landmark MDS (de Silva & Tenenbaum, 2004): classical MDS of the landmarks'
// hop distances gives the anchors, and every other node is triangulated from
// its distances to them with one D×L product (lmds.go). The searches cost
// 3 s of the router's 3.4 s preprocessing on the 60 k-node preset; the
// triangulation costs 0.05 s.
//
// Either way, what routing needs of the table is something no placement looks
// at: that a node's neighbours are near it, so that a hotspot's queries reach
// one processor's cache. Build therefore ends with one neighbour-averaging
// pass over the table, and IncorporateNode is that pass's step for one node.
// Three numbers describe a table and they do not move together: the landmark
// fit (MeasureLandmarkFit; the pass raises it), the pair error between nearby
// nodes (MeasureRelativeError, the paper's Figure 12(a)), and reuse captured —
// of the cache hits a router that knew the hotspots would get, the share
// embed routing gets — which is what the table is for and what the pipeline
// is judged by (TestEmbedCapturesHotspotReuse in internal/rpc).
package embed

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/xrand"
)

// Options configures the embedding pipeline.
type Options struct {
	// Dimensions of the Euclidean space (paper default: 10). With L landmarks
	// at most L−1 of them carry information; the rest stay 0.
	Dimensions int
	// Seed drives where a node no landmark reaches is put; every other row is
	// a function of the graph and the landmark index alone.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Dimensions <= 0 {
		o.Dimensions = 10
	}
	return o
}

// Embedding holds D coordinates per node id — O(n·D) router storage,
// Table 3's "embed" column.
type Embedding struct {
	D      int
	coords []float32 // flat, row-major [node][dim]
}

// NumNodes returns the node-id capacity of the embedding.
func (e *Embedding) NumNodes() int {
	if e.D == 0 {
		return 0
	}
	return len(e.coords) / e.D
}

// Coords returns node u's coordinate row (owned by the embedding; callers
// must not modify it). Nodes beyond the embedded range return nil.
func (e *Embedding) Coords(u graph.NodeID) []float32 {
	i := int(u) * e.D
	if i+e.D > len(e.coords) {
		return nil
	}
	return e.coords[i : i+e.D]
}

// grow extends the table to hold node u; the rows it adds are unembedded.
func (e *Embedding) grow(u graph.NodeID) {
	have, need := len(e.coords), (int(u)+1)*e.D
	if need <= have {
		return
	}
	if need > cap(e.coords) {
		// One allocation, at least need long, grown by a quarter at a time
		// when rows arrive one by one.
		e.coords = append(make([]float32, 0, max(need, cap(e.coords)*5/4)), e.coords...)
	}
	e.coords = e.coords[:need]
	for i := have; i < need; i++ {
		e.coords[i] = float32(math.NaN())
	}
}

// SetRow overwrites node u's coordinates with a provider-supplied row —
// the incremental-update path for externally sourced embeddings, where
// re-running the provider replaces the placement.
func (e *Embedding) SetRow(u graph.NodeID, row []float32) error {
	if len(row) != e.D {
		return fmt.Errorf("embed: row for node %d has %d dims, embedding has %d", u, len(row), e.D)
	}
	e.setRow(u, row)
	return nil
}

// setRow is setCoords' float32 twin, used when materializing a provider.
func (e *Embedding) setRow(u graph.NodeID, row []float32) {
	e.grow(u)
	copy(e.Coords(u), row)
}

// nanRow reports whether a coordinate row is the unembedded marker.
func nanRow(row []float32) bool { return len(row) > 0 && math.IsNaN(float64(row[0])) }

// StorageBytes reports the embedding's memory footprint (Table 3).
func (e *Embedding) StorageBytes() int64 { return int64(len(e.coords)) * 4 }

// Euclidean returns the L2 distance between two coordinate rows.
func Euclidean(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// relErr is Eq 4: |d − eu| / d for a known hop distance d > 0.
func relErr(d, eu float64) float64 { return math.Abs(d-eu) / d }

// landmarkRows is Build up to the pass: every node where landmark MDS puts
// it, in one serial sweep over the node ids.
func landmarkRows(g *graph.Graph, idx *landmark.Index, opts Options) (*Embedding, error) {
	opts = opts.withDefaults()
	if L := idx.NumLandmarks(); L < 2 {
		return nil, fmt.Errorf("embed: need at least 2 landmarks, have %d", L)
	}
	e := &Embedding{D: opts.Dimensions, coords: make([]float32, idx.NumNodes()*opts.Dimensions)}
	for i := range e.coords {
		e.coords[i] = float32(math.NaN())
	}
	m := newLMDS(idx, e.D)
	x := make([]float64, e.D)
	for u := range graph.NodeID(idx.NumNodes()) {
		if !g.Exists(u) {
			continue
		}
		if !m.triangulate(idx, u, x) {
			farOut(x, opts.Seed, u)
		}
		e.setCoords(u, x)
	}
	return e, nil
}

// setCoords copies p into node u's row, growing storage as needed.
func (e *Embedding) setCoords(u graph.NodeID, p []float64) {
	e.grow(u)
	row := e.Coords(u)
	for j := range row {
		row[j] = float32(p[j])
	}
}

// farOut puts a node no landmark reaches at a seeded random point far out
// (N(0, 1000) per coordinate), so it never looks artificially close to an
// active region; the point depends on the seed and the node alone.
func farOut(x []float64, seed int64, u graph.NodeID) {
	var rng xrand.Source
	rng.Seed(seed ^ int64(uint64(u)*0x9e3779b97f4a7c15))
	for i := range x {
		x[i] = rng.NormFloat64() * 1000
	}
}

// MeasureLandmarkFit returns the mean relative error (Eq 4) between true
// node→landmark hop distances and their embedded Euclidean distances, over
// sampled nodes — how well the rows keep the distances they were placed by,
// and Figure 12(a)'s first column here; it is NOT what the paper plots (see
// MeasureRelativeError).
func MeasureLandmarkFit(idx *landmark.Index, e *Embedding, samples int, seed int64) float64 {
	rng := xrand.New(seed)
	n := e.NumNodes()
	if n == 0 || idx.NumLandmarks() == 0 {
		return 0
	}
	var sum float64
	var count int
	for t := 0; t < samples*4 && count < samples; t++ {
		u := graph.NodeID(rng.Intn(n))
		cu := e.Coords(u)
		if cu == nil || math.IsNaN(float64(cu[0])) {
			continue
		}
		for i, l := range idx.Landmarks {
			d := idx.Dist(i, u)
			if d == landmark.Inf || d == 0 {
				continue
			}
			cl := e.Coords(l)
			if cl == nil {
				continue
			}
			sum += relErr(float64(d), Euclidean(cu, cl))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// MeasureRelativeError samples node pairs within maxHops of each other and
// returns the mean relative distance error (Eq 4) of the embedding between
// them — the paper's own measure of an embedding, the quantity plotted in
// Figure 12(a), and what routing depends on: no placement fits it, it is
// what fitting every node to the landmarks is hoped to buy. Pairs are drawn
// deterministically from seed; pairs whose true distance is 0 or
// unreachable are skipped.
func MeasureRelativeError(g *graph.Graph, e *Embedding, samples, maxHops int, seed int64) float64 {
	rng := xrand.New(seed)
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return 0
	}
	var sum float64
	var count int
	for t := 0; t < samples*4 && count < samples; t++ {
		u := nodes[rng.Intn(len(nodes))]
		near := g.BFSBounded(u, maxHops, graph.Both)
		delete(near, u)
		if len(near) == 0 {
			continue
		}
		// Sort the candidate ids so the pick is deterministic (map
		// iteration order is not).
		cands := make([]graph.NodeID, 0, len(near))
		for w := range near {
			cands = append(cands, w)
		}
		slices.Sort(cands)
		v := cands[rng.Intn(len(cands))]
		cu, cv := e.Coords(u), e.Coords(v)
		if cu == nil || cv == nil {
			continue
		}
		d := float64(near[v])
		sum += relErr(d, Euclidean(cu, cv))
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
