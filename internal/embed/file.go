package embed

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/graph"
	"repro/internal/wire"
)

// Precomputed-embedding file codec. A file is one versioned binary blob:
//
//	magic "GEMB" | version u8 | D uvarint | count uvarint |
//	count × (node uvarint | D × float32 LE) | crc32(IEEE) of all prior bytes
//
// Rows are sorted by node id (the encoder guarantees it, the decoder
// enforces it) so two files of the same embedding are byte-identical.
// The trailing checksum makes every truncation or corruption detectable:
// a prefix of a valid file is never itself a valid file.
const (
	fileMagic   = "GEMB"
	fileVersion = 1
	// maxFileDims bounds the decoded dimensionality; a corrupt header
	// cannot force a huge per-row allocation.
	maxFileDims = 1 << 12
	// maxTableGrowth bounds the coordinate table a file can make the
	// decoder allocate — (last row's id + 1) × D × 4 bytes — to this
	// multiple of the file's own length. A file of every node's row is
	// about the size of its table; one whose ids run far past its rows
	// asks for a table of mostly empty rows, and near id 1<<32 for more
	// memory than any process has.
	maxTableGrowth = 64
)

// EncodeEmbedding serialises every embedded (non-NaN) row of e into the
// versioned file format.
func EncodeEmbedding(e *Embedding) []byte {
	buf := append([]byte(nil), fileMagic...)
	buf = append(buf, fileVersion)
	buf = binary.AppendUvarint(buf, uint64(e.D))
	var count uint64
	for u := 0; u < e.NumNodes(); u++ {
		if !nanRow(e.Coords(graph.NodeID(u))) {
			count++
		}
	}
	buf = binary.AppendUvarint(buf, count)
	for u := 0; u < e.NumNodes(); u++ {
		row := e.Coords(graph.NodeID(u))
		if nanRow(row) {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(u))
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodeEmbedding parses a file-format blob back into an Embedding. Every
// malformed input — bad magic, unknown version, truncation at any byte,
// out-of-order rows, checksum mismatch, trailing bytes, row ids that would
// size the table past maxTableGrowth times the file — is an error, never a
// panic, an out-of-memory death or a silent partial decode.
func DecodeEmbedding(data []byte) (*Embedding, error) {
	if len(data) < len(fileMagic)+1+4 {
		return nil, fmt.Errorf("embed: file too short (%d bytes)", len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("embed: bad file magic %q", data[:len(fileMagic)])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("embed: file checksum mismatch (%08x != %08x)", got, want)
	}
	if v := body[len(fileMagic)]; v != fileVersion {
		return nil, fmt.Errorf("embed: unsupported file version %d", v)
	}
	d := wire.NewReader(body[len(fileMagic)+1:])
	dims := d.Uvarint()
	if dims == 0 || dims > maxFileDims {
		return nil, fmt.Errorf("embed: file dimensionality %d out of range", dims)
	}
	count := d.Uvarint()
	// Every row costs at least 1 + 4*dims bytes, so a corrupt count cannot
	// force a huge allocation.
	if count > uint64(d.Len())/(1+4*dims) {
		return nil, fmt.Errorf("embed: file row count %d exceeds payload", count)
	}
	e := &Embedding{D: int(dims)}
	if last, ok := lastRow(body[len(body)-d.Len():], count, dims); ok {
		if table := (last + 1) * dims * 4; table > maxTableGrowth*uint64(len(data)) {
			return nil, fmt.Errorf("embed: file of %d bytes asks for a %d-byte coordinate table (rows up to node %d), over %d x its size", len(data), table, last, maxTableGrowth)
		}
		e.grow(graph.NodeID(last)) // the table at its final size, allocated once
	}
	row := make([]float32, dims)
	last := -1
	for i := uint64(0); i < count; i++ {
		u := d.U32()
		if int(u) <= last {
			d.Fail() // rows ascend strictly
		}
		last = int(u)
		for j := range row {
			row[j] = d.F32()
		}
		if d.Failed() {
			break
		}
		e.setRow(graph.NodeID(u), row)
	}
	if err := d.Finish("embed: embedding file"); err != nil {
		return nil, err
	}
	return e, nil
}

// lastRow returns the node id of the last of the count rows of dims
// coordinates rows starts with — the largest, since rows ascend — and
// false when rows is too short to hold them or an id overflows a NodeID.
func lastRow(rows []byte, count, dims uint64) (uint64, bool) {
	var u uint64
	for range count {
		id, n := binary.Uvarint(rows)
		if n <= 0 || id > math.MaxUint32 || uint64(len(rows)-n) < 4*dims {
			return 0, false
		}
		u, rows = id, rows[n+int(4*dims):]
	}
	return u, count > 0
}

// WriteEmbeddingFile writes e to path in the versioned file format — the
// producer half of `groutingd -embed-file` (grouting-gen and tests call
// it to precompute artifacts).
func WriteEmbeddingFile(path string, e *Embedding) error {
	return os.WriteFile(path, EncodeEmbedding(e), 0o644)
}

// FileProvider serves coordinates from a precomputed embedding artifact:
// the decoupled-artifact path (compute the embedding offline or on
// another machine, load it everywhere) and the way both transports share
// one identical embedding in the cross-transport tests.
type FileProvider struct {
	e *Embedding
}

// OpenFileProvider loads a versioned embedding file from path.
func OpenFileProvider(path string) (*FileProvider, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("embed: %w", err)
	}
	e, err := DecodeEmbedding(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return &FileProvider{e: e}, nil
}

// NewFileProvider wraps an already-materialised embedding in the provider
// interface without touching disk (round-trip tests, in-memory reuse).
func NewFileProvider(e *Embedding) *FileProvider { return &FileProvider{e: e} }

// Name implements Embedder.
func (f *FileProvider) Name() string { return "file" }

// Dimensions implements Embedder.
func (f *FileProvider) Dimensions() int { return f.e.D }

// Embed implements Embedder.
func (f *FileProvider) Embed(ctx context.Context, nodes []graph.NodeID) ([][]float32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows := make([][]float32, len(nodes))
	for i, u := range nodes {
		if row := f.e.Coords(u); row != nil && !nanRow(row) {
			rows[i] = row
		}
	}
	return rows, nil
}

// Snapshot implements Snapshotter.
func (f *FileProvider) Snapshot() *Embedding { return f.e }
