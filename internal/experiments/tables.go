package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func init() {
	register("table1", "Table 1", "dataset statistics (synthetic presets standing in for the originals)", runTable1)
	register("table2", "Table 2", "preprocessing times: landmark BFS sweep, landmark embedding, per-node embedding", runTable2)
	register("table3", "Table 3", "preprocessing storage vs original graph size", runTable3)
}

func runTable1(sc Scale) (Result, error) {
	t := Table{
		Columns: columns("dataset", "nodes", "edges", "avg-deg", "p99-deg", "adj-bytes", "avg-2hop|%.0f", "paper-nodes", "paper-edges", "paper-size"),
		Rows:    make([][]any, len(gen.Datasets)),
	}
	cells := make([]func() error, len(gen.Datasets))
	for i, d := range gen.Datasets {
		cells[i] = func() error {
			g, err := loadPreset(d, sc)
			if err != nil {
				return err
			}
			st, spec := graph.ComputeStats(g), gen.Specs[d]
			t.Rows[i] = []any{string(d), st.Nodes, st.Edges, st.AvgOutDeg, st.DegreeP99, st.AdjListSize,
				graph.AvgKHopSize(g, 2, 40, graph.Both), spec.PaperNodes, spec.PaperEdges, spec.PaperSizeDisk}
			return nil
		}
	}
	if err := runCells(cells); err != nil {
		return Result{}, err
	}
	return Result{Tables: []Table{t}}, nil
}

// embedSystem builds the Embed-policy system whose preprocessing Tables 2
// and 3 report.
func embedSystem(sc Scale) (*graphT, *core.System, error) {
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystem(g, sysConfig(core.PolicyEmbed, sc))
	return g, sys, err
}

func runTable2(sc Scale) (Result, error) {
	g, sys, err := embedSystem(sc)
	if err != nil {
		return Result{}, err
	}
	p := sys.Prep()
	perNodeEmbed := time.Duration(0)
	if n := g.NumNodes(); n > 0 {
		perNodeEmbed = p.EmbedNodeTime / time.Duration(n)
	}
	t := Table{Columns: columns("phase", "measured", "paper (WebGraph, 106M nodes)"), Rows: [][]any{
		{"landmark selection", p.SelectTime, "-"},
		// One multi-source search serves every landmark at once, so its
		// total is the measured cost: divided by L it is no search's time.
		{fmt.Sprintf("BFS, one sweep for all %d landmarks", p.Landmarks), p.BFSTime, "35 s per landmark"},
		{"embedding total", p.EmbedNodeTime, "-"},
		{"embedding per node", perNodeEmbed, "1 s"},
	}}
	return Result{Tables: []Table{t}}, nil
}

func runTable3(sc Scale) (Result, error) {
	_, sys, err := embedSystem(sc)
	if err != nil {
		return Result{}, err
	}
	p := sys.Prep()
	frac := func(b int64) any {
		if p.GraphBytes == 0 {
			return "-"
		}
		return float64(b) / float64(p.GraphBytes)
	}
	t := Table{Columns: columns("structure", "bytes", "fraction-of-graph|%.3f", "paper"), Rows: [][]any{
		{"landmark d(u,p) table", p.LandmarkBytes, frac(p.LandmarkBytes), "2.8 GB vs 60.3 GB graph"},
		{"embedding coordinates", p.EmbedBytes, frac(p.EmbedBytes), "4 GB vs 60.3 GB graph"},
		{"landmark BFS index", p.IndexBytes, frac(p.IndexBytes), "-"},
		{"encoded graph (storage tier)", p.GraphBytes, frac(p.GraphBytes), "60.3 GB"},
	}}
	return Result{Tables: []Table{t}}, nil
}
