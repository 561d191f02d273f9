package gen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"repro/internal/graph"
)

// WriteAdjacency serialises g in the plain adjacency-list text format
// cmd/grouting-gen emits: one line per live node, "id: out1 out2 ...".
// Labels are not preserved (the format exists for interchange with
// external graph tooling and for loading real datasets).
func WriteAdjacency(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		if !g.Exists(id) {
			continue
		}
		line = append(strconv.AppendUint(line[:0], uint64(id), 10), ':')
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
// created implicitly. Blank lines and lines starting with '#' are skipped.
//
// Lines are parsed in place and their edges go straight into a graph.Bulk,
// so the load allocates little beyond the graph it returns: a router that
// reads its dataset from a file peaks at the size of the graph, not at
// three times it.
func ReadAdjacency(r io.Reader) (*graph.Graph, error) {
	var b graph.Bulk
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		head, rest, ok := bytes.Cut(line, []byte{':'})
		if !ok {
			return nil, fmt.Errorf("gen: line %d: missing ':'", lineNo)
		}
		// string(bytes) here and below stays on the stack: ParseUint copies
		// its input before putting it in an error.
		src64, err := strconv.ParseUint(string(bytes.TrimSpace(head)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gen: line %d: bad node id: %w", lineNo, err)
		}
		src, err := nodeID(src64)
		if err != nil {
			return nil, err
		}
		b.Begin(src)
		for tok := range bytes.FieldsSeq(rest) {
			dst64, err := strconv.ParseUint(string(tok), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("gen: line %d: bad edge target %q: %w", lineNo, tok, err)
			}
			dst, err := nodeID(dst64)
			if err != nil {
				return nil, err
			}
			b.Edge(dst)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gen: read: %w", err)
	}
	return b.Graph(), nil
}
