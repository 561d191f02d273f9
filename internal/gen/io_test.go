package gen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
)

// replayAdjacency is the reader ReadAdjacency replaced — one AddNode per
// id, one AddEdgeFast per token, every slice grown by append — kept as the
// oracle: the bulk reader must accept what it accepts, build the graph it
// builds (adjacency order included) and fail where and how it fails.
func replayAdjacency(r io.Reader) (*graph.Graph, error) {
	g := graph.New()
	ensure := func(id uint64) (graph.NodeID, error) {
		if id > uint64(^graph.NodeID(0)) {
			return 0, fmt.Errorf("gen: node id %d overflows NodeID", id)
		}
		for uint64(g.MaxNodeID()) <= id {
			g.AddNode("")
		}
		return graph.NodeID(id), nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		head, rest, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("gen: line %d: missing ':'", lineNo)
		}
		src64, err := strconv.ParseUint(strings.TrimSpace(head), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gen: line %d: bad node id: %w", lineNo, err)
		}
		src, err := ensure(src64)
		if err != nil {
			return nil, err
		}
		for _, tok := range strings.Fields(rest) {
			dst64, err := strconv.ParseUint(tok, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("gen: line %d: bad edge target %q: %w", lineNo, tok, err)
			}
			dst, err := ensure(dst64)
			if err != nil {
				return nil, err
			}
			g.AddEdgeFast(src, dst)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gen: read: %w", err)
	}
	return g, nil
}

func sameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.MaxNodeID() != want.MaxNodeID() || got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("got %d ids / %d nodes / %d edges, want %d / %d / %d", got.MaxNodeID(), got.NumNodes(),
			got.NumEdges(), want.MaxNodeID(), want.NumNodes(), want.NumEdges())
	}
	for u := graph.NodeID(0); u < want.MaxNodeID(); u++ {
		if !slices.Equal(got.OutEdges(u), want.OutEdges(u)) {
			t.Fatalf("node %d: out %v, want %v", u, got.OutEdges(u), want.OutEdges(u))
		}
		if !slices.Equal(got.InEdges(u), want.InEdges(u)) {
			t.Fatalf("node %d: in %v, want %v", u, got.InEdges(u), want.InEdges(u))
		}
	}
}

// randomAdjacencyText writes a file no generator would: sources out of
// order and repeated, ids seen only as targets, self-loops, parallel edges,
// comments, blank lines, tabs, runs of spaces, a non-ASCII space.
func randomAdjacencyText(rng *rand.Rand) string {
	seps := []string{" ", "  ", "\t", " \t ", "\u00a0", "   "}
	sep := func() string { return seps[rng.Intn(len(seps))] }
	ids := 1 + rng.Intn(200)
	var sb strings.Builder
	for line := rng.Intn(300); line > 0; line-- {
		switch rng.Intn(12) {
		case 0:
			sb.WriteString("# 3: 4 5\n")
			continue
		case 1:
			sb.WriteString(sep() + "\n")
			continue
		}
		src := rng.Intn(ids)
		if rng.Intn(3) == 0 {
			sb.WriteString(sep())
		}
		fmt.Fprintf(&sb, "%d", src)
		if rng.Intn(4) == 0 {
			sb.WriteString(sep())
		}
		sb.WriteByte(':')
		last := src
		for d := rng.Intn(10); d > 0; d-- {
			switch rng.Intn(8) {
			case 0: // self-loop
				last = src
			case 1: // parallel edge (or a self-loop when first)
			default:
				last = rng.Intn(ids + ids/4)
			}
			sb.WriteString(sep())
			fmt.Fprintf(&sb, "%d", last)
		}
		if rng.Intn(3) == 0 {
			sb.WriteString(sep())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestReadAdjacencyMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		text := randomAdjacencyText(rand.New(rand.NewSource(seed)))
		want, err := replayAdjacency(strings.NewReader(text))
		if err != nil {
			t.Fatalf("seed %d: oracle rejects its own input: %v", seed, err)
		}
		got, err := ReadAdjacency(strings.NewReader(text))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameGraph(t, got, want)
	}
}

func TestReadAdjacencyFailsLikeReplay(t *testing.T) {
	for _, in := range []string{
		"no colon here\n",
		"0: 1\n\n# c\n1 2\n",
		"x: 1\n",
		": 1\n",
		"0: 1\n-3: 1\n",
		"0: abc\n",
		"0: 1 2 3x 4\n",
		"0: 1:2\n",
		"4294967296: 1\n",
		"0: 4294967296\n",
		"0: 99999999999999999999\n",
		"0: " + strings.Repeat("7", 1<<24) + "\n",
	} {
		_, want := replayAdjacency(strings.NewReader(in))
		_, got := ReadAdjacency(strings.NewReader(in))
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("input %.20q: error %v, want %v", in, got, want)
		}
	}
}

// FuzzReadAdjacency holds ReadAdjacency to replayAdjacency on any input:
// both accept or both refuse, with the same error text, and what they
// accept is the same graph. An input naming a valid id above 1<<16 is
// skipped: the replay grows one node at a time up to it, and an id near
// 1<<32 is a graph of four billion nodes for either reader.
func FuzzReadAdjacency(f *testing.F) {
	for _, seed := range []string{
		"0: 1 2\r\n1: 0\r\n2:\r\n",
		"# 3: 4 5\n\n \t# indented\n0: 1\n",
		"0:\u00a01\u00a02\n\u00a01\u00a0:\u00a00\u00a0\n",
		"0:\u00851\u00852\u0085\n\u0085",
		"0: 1\u2028 2\u3000\n",
		"0000000001: 0000000002 00000000000000000003\n",
		"4294967296: 1\n",
		"0: 1 4294967296\n",
		"0: 18446744073709551615\n",
		"0: 18446744073709551616\n",
		"99999999999999999999 : 1\n",
		"0: 1 x 2\n",
		"0 1: 2\n",
		"no colon\n",
		": 1\n",
		"0: 1:2\n",
		"\xff: 1\n",
		"0: 1\xff 2\n",
		"0: 1\n2: 3",
		"",
		"\n\n",
	} {
		f.Add(seed)
	}
	f.Add(randomAdjacencyText(rand.New(rand.NewSource(1))))
	f.Fuzz(func(t *testing.T, text string) {
		for _, run := range strings.FieldsFunc(text, func(r rune) bool { return r < '0' || r > '9' }) {
			if v, err := strconv.ParseUint(run, 10, 32); err == nil && v > 1<<16 {
				t.Skip("names an id too large to replay")
			}
		}
		want, werr := replayAdjacency(strings.NewReader(text))
		got, gerr := ReadAdjacency(strings.NewReader(text))
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("ReadAdjacency error %v, the replay's %v", gerr, werr)
		case werr != nil:
			if gerr.Error() != werr.Error() {
				t.Fatalf("ReadAdjacency error %q, the replay's %q", gerr, werr)
			}
		default:
			sameGraph(t, got, want)
		}
	})
}

// The load's whole point is its footprint: what ReadAdjacency allocates in
// total must stay within a quarter of what the graph it returns keeps (the
// append-per-edge reader allocated 3.4 x), and what it keeps until an
// in-edge is read is the out-view and the run list, not the in-view a hash
// router never reads: 11.2 B per edge on this preset, 20.3 when the load
// laid the in-view out too, ceiling 16; reading the id index adds its 4 B an
// edge and no view. The first in-read builds the view the replay builds.
func TestReadAdjacencyByteBudget(t *testing.T) {
	g, err := Preset(WebGraph, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := WriteAdjacency(&file, g); err != nil {
		t.Fatal(err)
	}
	nodes, edges := g.NumNodes(), g.NumEdges()
	g = nil
	var before, after, kept runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := ReadAdjacency(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	if got.NumNodes() != nodes || got.NumEdges() != edges {
		t.Fatalf("loaded %d nodes / %d edges, want %d / %d", got.NumNodes(), got.NumEdges(), nodes, edges)
	}
	allocated := float64(after.TotalAlloc - before.TotalAlloc)
	retained := float64(kept.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("ReadAdjacency of %d nodes / %d edges: %.1f MiB allocated for %.1f MiB retained (%.2f x, %.1f B per edge)",
		nodes, edges, allocated/(1<<20), retained/(1<<20), allocated/retained, retained/float64(edges))
	if allocated > 1.25*retained {
		t.Errorf("allocated %.0f bytes for %.0f retained: over the 1.25 x budget", allocated, retained)
	}
	if perEdge := retained / float64(edges); perEdge > 16 {
		t.Errorf("the load retains %.1f B per edge before any in-edge is read, ceiling 16", perEdge)
	}
	// What the routing preprocessing reads instead of the in-view, the id
	// index, adds 4 B an edge (and 4 a node) to that and lays out no view.
	for u := range got.MaxNodeID() {
		got.InIDs(u)
	}
	runtime.GC()
	runtime.ReadMemStats(&kept)
	withIDs := (float64(kept.HeapAlloc) - float64(before.HeapAlloc)) / float64(edges)
	t.Logf("with the id index read: %.1f B per edge", withIDs)
	if withIDs > 16+4 {
		t.Errorf("the load and the id index retain %.1f B per edge, ceiling 16 + 4", withIDs)
	}
	want, err := replayAdjacency(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, got, want)
	runtime.KeepAlive(&file) // or the file's bytes would be counted as freed by the load
}

func TestAdjacencyRoundTrip(t *testing.T) {
	g := RMAT(RMATOptions{Nodes: 200, Edges: 900, Seed: 5})
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAdjacency(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d edges",
			got.NumNodes(), g.NumNodes(), got.NumEdges(), g.NumEdges())
	}
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		if got.OutDegree(id) != g.OutDegree(id) {
			t.Fatalf("node %d out-degree %d != %d", id, got.OutDegree(id), g.OutDegree(id))
		}
	}
	// In-adjacency is rebuilt consistently.
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		if got.InDegree(id) != g.InDegree(id) {
			t.Fatalf("node %d in-degree mismatch", id)
		}
	}
}

func TestReadAdjacencyComments(t *testing.T) {
	in := "# a comment\n\n0: 1 2\n1: 2\n2:\n"
	g, err := ReadAdjacency(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(1, 2) {
		t.Fatal("edges missing")
	}
}

func TestReadAdjacencyImplicitNodes(t *testing.T) {
	// Targets beyond any source line are created implicitly.
	g, err := ReadAdjacency(strings.NewReader("0: 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", g.NumNodes())
	}
	if !g.HasEdge(0, 5) {
		t.Fatal("edge missing")
	}
}

func TestReadAdjacencyErrors(t *testing.T) {
	for _, in := range []string{
		"no colon here\n",
		"x: 1\n",
		"0: abc\n",
	} {
		if _, err := ReadAdjacency(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestWriteAdjacencySkipsRemoved(t *testing.T) {
	g := Ring(5)
	if err := g.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\n2:") || strings.HasPrefix(buf.String(), "2:") {
		t.Fatalf("removed node serialised:\n%s", buf.String())
	}
}

// fmtAdjacency is the writer WriteAdjacency replaced, one fmt.Fprintf per
// id and per edge, kept as the oracle of the format's bytes.
func fmtAdjacency(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		if !g.Exists(id) {
			continue
		}
		if _, err := fmt.Fprintf(bw, "%d:", id); err != nil {
			return err
		}
		for _, e := range g.OutEdges(id) {
			if _, err := fmt.Fprintf(bw, " %d", e.To); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestWriteAdjacencyMatchesFmt holds WriteAdjacency to the fmt-based writer
// byte for byte: a skewed graph, one with a removed node, isolated nodes
// and parallel edges, and ids of one to six digits.
func TestWriteAdjacencyMatchesFmt(t *testing.T) {
	holed := Ring(12)
	if err := holed.RemoveNode(4); err != nil {
		t.Fatal(err)
	}
	holed.AddNodes(3) // isolated: "id:" lines
	holed.AddEdgeFast(0, 1)
	wide := graph.New()
	wide.AddNodes(120_000)
	for _, e := range [][2]graph.NodeID{{0, 9}, {9, 99}, {99, 99_999}, {119_999, 0}, {12_345, 100_000}} {
		wide.AddEdgeFast(e[0], e[1])
	}
	web, err := Preset(WebGraph, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"holed": holed, "wide": wide, "webgraph": web} {
		var got, want bytes.Buffer
		if err := WriteAdjacency(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := fmtAdjacency(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: WriteAdjacency wrote %d bytes, the fmt writer %d, and they differ", name, got.Len(), want.Len())
		}
	}
}
