package query

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// coordMap is a CoordSource over a fixed table; an absent node has no row.
type coordMap map[graph.NodeID][]float32

func (m coordMap) Coords(u graph.NodeID) []float32 { return m[u] }

var nan = float32(math.NaN())

// TestRankNearest: candidates rank by distance, a tie goes to the smaller
// id whatever order the candidates come in, a candidate with no row or with
// the NaN unembedded marker is dropped, and k is capped by what is left.
func TestRankNearest(t *testing.T) {
	coords := coordMap{
		1: {1, 0},   // distance 1
		2: {0, 1},   // distance 1, ties with 1
		3: {nan, 0}, // unembedded
		5: {0, 0},   // distance 0
		6: {2, 0},   // distance 4
		7: {0, -1},  // distance 1, ties with 1 and 2
		// 4 has no row at all
	}
	cu := []float32{0, 0}
	all := []graph.NodeID{1, 2, 3, 4, 5, 6, 7}
	for _, c := range []struct {
		name  string
		cands []graph.NodeID
		k     int
		want  []graph.NodeID
	}{
		{"nearest three", all, 3, []graph.NodeID{5, 1, 2}},
		{"k past the embedded", all, 10, []graph.NodeID{5, 1, 2, 7, 6}},
		{"ties in reverse order", []graph.NodeID{7, 2, 1}, 3, []graph.NodeID{1, 2, 7}},
		{"only unembedded", []graph.NodeID{3, 4}, 2, []graph.NodeID{}},
		{"k zero", all, 0, []graph.NodeID{}},
		{"no candidates", nil, 4, []graph.NodeID{}},
	} {
		if got := RankNearest(cu, c.cands, coords, c.k); !slices.Equal(got, c.want) {
			t.Errorf("%s: RankNearest = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAnswerKNN: the oracle ranks the undirected ball around the anchor —
// the anchor itself excluded — and an anchor with no row, or the NaN
// marker, answers empty.
func TestAnswerKNN(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 and 4 -> 1: node 4 is reached only against the edge.
	g := graph.New()
	g.AddNodes(5)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {4, 1}} {
		g.AddEdgeFast(e[0], e[1])
	}
	coords := coordMap{0: {0}, 1: {3}, 2: {1}, 3: {2}, 4: {-1}}
	q := Query{Type: KNearest, Node: 1, Hops: 1, K: 8}

	got := AnswerKNN(g, coords, q)
	want := Result{Type: KNearest, Count: 3}
	copy(want.Nearest[:], []graph.NodeID{2, 0, 4}) // distances 2, 3, 4
	if got != want {
		t.Errorf("one hop from 1: %+v, want %+v", got, want)
	}

	q.Hops, q.K = 2, 2
	got = AnswerKNN(g, coords, q)
	want = Result{Type: KNearest, Count: 2}
	copy(want.Nearest[:], []graph.NodeID{3, 2}) // 3 enters at two hops
	if got != want {
		t.Errorf("two hops from 1, k 2: %+v, want %+v", got, want)
	}

	for name, cs := range map[string]coordMap{
		"anchor without a row": {0: {0}, 2: {1}},
		"anchor marked NaN":    {0: {0}, 1: {nan}, 2: {1}},
	} {
		if got := AnswerKNN(g, cs, q); got != (Result{Type: KNearest}) {
			t.Errorf("%s: %+v, want an empty answer", name, got)
		}
	}
	if got := Answer(g, q); got != (Result{Type: KNearest}) {
		t.Errorf("Answer without coordinates: %+v, want an empty answer", got)
	}
}
