package embed_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/embed"
	"repro/internal/embed/embedtest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
)

// testIndex builds the shared small graph + landmark index the provider
// tests run over.
func testIndex(t testing.TB) (*graph.Graph, *landmark.Index) {
	t.Helper()
	g := gen.ErdosRenyi(120, 480, 3)
	ls := landmark.Select(g, 8, 1)
	if len(ls) < 2 {
		t.Fatalf("only %d landmarks selected", len(ls))
	}
	return g, landmark.BuildIndex(g, ls, 0)
}

// remote stands in for a client of an external embedding service: it
// answers batches out of a table it does not hand over (no Snapshot), or,
// with no table, fails every call the way an unreachable service does.
type remote struct {
	e    *embed.Embedding
	dims int
}

func (r remote) Name() string    { return "service" }
func (r remote) Dimensions() int { return r.dims }

func (r remote) Embed(ctx context.Context, nodes []graph.NodeID) ([][]float32, error) {
	if r.e == nil {
		return nil, fmt.Errorf("embedding backend unreachable: %w", embed.ErrUnavailable)
	}
	return embed.NewFileProvider(r.e).Embed(ctx, nodes)
}

// TestLearnedProviderGolden: the built-in scheme as a provider is Build's
// table behind NewFileProvider — Materialize hands back the table itself,
// every row Embed serves is Build's bit for bit, and with no provider at
// all Stats names the source "learned".
func TestLearnedProviderGolden(t *testing.T) {
	g, idx := testIndex(t)
	want, err := embed.Build(g, idx, embed.Options{Dimensions: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := embed.NewFileProvider(want)
	if got, err := embed.Materialize(context.Background(), p, g); err != nil || got != want {
		t.Fatalf("Materialize = %p, %v; want Build's table %p", got, err, want)
	}
	nodes := g.Nodes()
	rows, err := p.Embed(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range nodes {
		for j, c := range want.Coords(u) {
			if math.Float32bits(rows[i][j]) != math.Float32bits(c) {
				t.Fatalf("node %d dim %d: provider %v != Build %v (not bit-identical)", u, j, rows[i][j], c)
			}
		}
	}
	if got := embed.SourceName(nil); got != "learned" {
		t.Fatalf("SourceName(nil) = %q, want learned", got)
	}
}

// TestProviderConformance runs the embedtest suite over the built-in table,
// a file artifact and a service client — the same harness downstream
// providers run.
func TestProviderConformance(t *testing.T) {
	g, idx := testIndex(t)
	nodes := []graph.NodeID{0, 3, 17, 42, 77, 119, 5000} // 5000: beyond the graph, exercises nil rows
	base, err := embed.Build(g, idx, embed.Options{Dimensions: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "emb.bin")
	if err := embed.WriteEmbeddingFile(path, base); err != nil {
		t.Fatal(err)
	}

	targets := map[string]embedtest.Target{
		"learned": {
			Nodes: nodes,
			New: func(t *testing.T) embed.Embedder {
				e, err := embed.Build(g, idx, embed.Options{Dimensions: 4, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				return embed.NewFileProvider(e)
			},
		},
		"file": {
			Nodes: nodes,
			New: func(t *testing.T) embed.Embedder {
				p, err := embed.OpenFileProvider(path)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		"service": {
			Nodes: nodes,
			New: func(t *testing.T) embed.Embedder {
				return remote{base, base.D}
			},
		},
	}
	for name, tgt := range targets {
		t.Run(name, func(t *testing.T) { embedtest.Run(t, tgt) })
	}
}

// TestFileCodecRoundTrip: encode → decode is the identity on embedded
// rows, and the encoding is canonical (byte-identical across encodes).
func TestFileCodecRoundTrip(t *testing.T) {
	g, idx := testIndex(t)
	e, err := embed.Build(g, idx, embed.Options{Dimensions: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	blob := embed.EncodeEmbedding(e)
	if blob2 := embed.EncodeEmbedding(e); string(blob) != string(blob2) {
		t.Fatal("encoding is not canonical")
	}
	got, err := embed.DecodeEmbedding(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.D != e.D || got.NumNodes() != e.NumNodes() {
		t.Fatalf("shape: got D=%d n=%d, want D=%d n=%d", got.D, got.NumNodes(), e.D, e.NumNodes())
	}
	for u := graph.NodeID(0); int(u) < e.NumNodes(); u++ {
		a, b := e.Coords(u), got.Coords(u)
		for j := range a {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				t.Fatalf("node %d dim %d: %v != %v", u, j, b[j], a[j])
			}
		}
	}
}

// TestFileDecodeAllocatesTableOnce: decoding an artifact allocates the
// coordinate table once, at its final size, not by growing it a float at a
// time.
func TestFileDecodeAllocatesTableOnce(t *testing.T) {
	g := gen.LocalWeb(20000, 6, 120, 0.04, 3)
	e, err := embed.Build(g, landmark.BuildIndex(g, landmark.Select(g, 16, 2), 0), embed.Options{Dimensions: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	blob := embed.EncodeEmbedding(e)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := embed.DecodeEmbedding(blob)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocated, table := after.TotalAlloc-before.TotalAlloc, uint64(got.StorageBytes())
	t.Logf("decoding a %d-byte artifact allocated %d bytes for a %d-byte table", len(blob), allocated, table)
	if allocated > table+table/8 {
		t.Fatalf("decode allocated %d bytes for a %d-byte table", allocated, table)
	}
}

// TestFileCodecTruncation truncates a valid artifact at every byte
// boundary: every strict prefix must fail to decode (the trailing
// checksum guarantees truncation is never silent), and none may panic.
func TestFileCodecTruncation(t *testing.T) {
	g, idx := testIndex(t)
	e, err := embed.Build(g, idx, embed.Options{Dimensions: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	blob := embed.EncodeEmbedding(e)
	for i := 0; i < len(blob); i++ {
		if _, err := embed.DecodeEmbedding(blob[:i]); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", i, len(blob))
		}
	}
}

// TestFileCodecCorruption flips each byte of the header and checksum
// regions: decode must fail (magic, version, dims, count and the CRC all
// guard their bytes).
func TestFileCodecCorruption(t *testing.T) {
	g, idx := testIndex(t)
	e, err := embed.Build(g, idx, embed.Options{Dimensions: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	blob := embed.EncodeEmbedding(e)
	for i := 0; i < len(blob); i++ {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0xff
		if _, err := embed.DecodeEmbedding(bad); err == nil {
			t.Fatalf("corruption at byte %d decoded cleanly", i)
		}
	}
}

// farRowFile is a well-formed file — right magic, version and checksum —
// of one 2-D row at node 4,000,000,000: 24 bytes that ask for a 32 GB table.
func farRowFile() []byte {
	buf := append([]byte("GEMB"), 1)
	buf = binary.AppendUvarint(buf, 2)
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, 4_000_000_000)
	buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(1))
	buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(2))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestFileDecodeRefusesFarRows: a file whose row ids would size the
// coordinate table far past the file is refused with both sizes named,
// before anything is allocated — the decoder used to allocate the table the
// last row's id asked for and die out of memory here.
func TestFileDecodeRefusesFarRows(t *testing.T) {
	blob := farRowFile()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := embed.DecodeEmbedding(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 24-byte file asking for a 32 GB table decoded")
	}
	for _, size := range []string{fmt.Sprint(len(blob)), fmt.Sprint(uint64(4_000_000_001) * 2 * 4)} {
		if !strings.Contains(err.Error(), size) {
			t.Errorf("error %q does not name %s", err, size)
		}
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("refusing the file allocated %d bytes", n)
	}
}

// FuzzFileDecode throws arbitrary bytes at the file decoder: never panic,
// and anything that decodes must re-encode to a blob that decodes to the
// same embedding.
func FuzzFileDecode(f *testing.F) {
	g, idx := testIndex(f)
	e, err := embed.Build(g, idx, embed.Options{Dimensions: 2, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(embed.EncodeEmbedding(e))
	f.Add([]byte("GEMB"))
	f.Add([]byte{})
	f.Add(farRowFile())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := embed.DecodeEmbedding(data)
		if err != nil {
			return
		}
		re := embed.EncodeEmbedding(got)
		again, err := embed.DecodeEmbedding(re)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if again.D != got.D || again.NumNodes() != got.NumNodes() {
			t.Fatalf("re-encode changed shape: D %d→%d n %d→%d", got.D, again.D, got.NumNodes(), again.NumNodes())
		}
	})
}

// TestMaterializeFromService walks the batched (non-Snapshotter) path and
// must agree with the backing embedding row for row.
func TestMaterializeFromService(t *testing.T) {
	g, idx := testIndex(t)
	base, err := embed.Build(g, idx, embed.Options{Dimensions: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := embed.Materialize(context.Background(), remote{base, 3}, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range g.Nodes() {
		a, b := base.Coords(u), got.Coords(u)
		for j := range a {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				t.Fatalf("node %d dim %d: %v != %v", u, j, b[j], a[j])
			}
		}
	}
	// A failing provider propagates its error (wrapping ErrUnavailable).
	if _, err := embed.Materialize(context.Background(), remote{dims: 3}, g); !errors.Is(err, embed.ErrUnavailable) {
		t.Fatalf("materialize over a dead provider: err = %v, want ErrUnavailable", err)
	}
}
