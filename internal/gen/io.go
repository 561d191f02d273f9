package gen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/graph"
)

// WriteAdjacency serialises g in the plain adjacency-list text format
// cmd/grouting-gen emits: one line per live node, "id: out1 out2 ...".
// Labels are not preserved (the format exists for interchange with
// external graph tooling and for loading real datasets). Each line is
// formatted in place in a 64 KiB write buffer, so a 60 k-node graph costs
// its file about seventy writes.
func WriteAdjacency(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		if !g.Exists(id) {
			continue
		}
		line := append(strconv.AppendUint(bw.AvailableBuffer(), uint64(id), 10), ':')
		for _, e := range g.OutEdges(id) {
			line = strconv.AppendUint(append(line, ' '), uint64(e.To), 10)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// nodeID narrows a parsed id to a NodeID.
func nodeID(id uint64) (graph.NodeID, error) {
	if id > uint64(^graph.NodeID(0)) {
		return 0, fmt.Errorf("gen: node id %d overflows NodeID", id)
	}
	return graph.NodeID(id), nil
}

// ReadAdjacency parses the adjacency-list text format back into a graph.
// Node ids may appear in any order; ids mentioned only as edge targets are
// created implicitly. Blank lines and lines starting with '#' are skipped;
// a line ends at '\n', and every other space unicode.IsSpace names
// separates ids.
//
// Lines are parsed in place and their edges go straight into a graph.Bulk,
// so the load allocates little beyond the graph it returns: a router that
// reads its dataset from a file peaks at the size of the graph, not at
// three times it.
func ReadAdjacency(r io.Reader) (*graph.Graph, error) {
	var b graph.Bulk
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if err := parseLine(&b, sc.Bytes(), lineNo); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gen: read: %w", err)
	}
	return b.Graph(), nil
}

// parseLine adds the run one line of the format holds to b: optional
// space, the source id, optional space, ':', then target ids separated by
// space. It reads each byte once: ASCII digits and spaces inline, any
// other byte of 0x80 or above as the UTF-8 rune it opens, a space when
// unicode.IsSpace says so. strconv is called only to word an error.
func parseLine(b *graph.Bulk, line []byte, lineNo int) error {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] == '#' {
		return nil
	}
	src, j, ok := parseID(line, i)
	k := skipSpace(line, j)
	if !ok || j == i || k == len(line) || line[k] != ':' {
		return headError(line, i, lineNo)
	}
	b.Begin(src)
	for i = skipSpace(line, k+1); i < len(line); {
		dst, j, ok := parseID(line, i)
		k := skipSpace(line, j)
		if !ok || (k == j && j < len(line)) {
			return targetError(line, i, lineNo)
		}
		b.Edge(dst)
		i = k
	}
	return nil
}

// parseID reads the run of ASCII digits at line[i:] and returns its value,
// where it ends, and false when the value overflows a NodeID.
func parseID(line []byte, i int) (graph.NodeID, int, bool) {
	const limit = uint64(^graph.NodeID(0))
	v := uint64(0)
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		v = min(v*10+uint64(d), limit+1)
	}
	return graph.NodeID(v), i, v <= limit
}

// skipSpace returns the index of the first byte at or after i that does
// not start a space, or len(line).
func skipSpace(line []byte, i int) int {
	for i < len(line) {
		c := line[i]
		if c == ' ' || c-'\t' <= '\r'-'\t' {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			return i
		}
		r, n := utf8.DecodeRune(line[i:])
		if !unicode.IsSpace(r) {
			return i
		}
		i += n
	}
	return i
}

// headError words why the head at line[i:] was refused: no ':' on the
// line, an id strconv refuses, or one that overflows a NodeID.
func headError(line []byte, i, lineNo int) error {
	colon := bytes.IndexByte(line, ':')
	if colon < 0 {
		return fmt.Errorf("gen: line %d: missing ':'", lineNo)
	}
	// string(bytes) here and below stays on the stack: ParseUint copies
	// its input before putting it in an error.
	id, err := strconv.ParseUint(string(bytes.TrimSpace(line[i:colon])), 10, 64)
	if err != nil {
		return fmt.Errorf("gen: line %d: bad node id: %w", lineNo, err)
	}
	_, err = nodeID(id)
	return err
}

// targetError words why the target id at line[i:] was refused: a token
// strconv refuses, or an id that overflows a NodeID.
func targetError(line []byte, i, lineNo int) error {
	tok := line[i:]
	if end := bytes.IndexFunc(tok, unicode.IsSpace); end >= 0 {
		tok = tok[:end]
	}
	id, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return fmt.Errorf("gen: line %d: bad edge target %q: %w", lineNo, tok, err)
	}
	_, err = nodeID(id)
	return err
}
