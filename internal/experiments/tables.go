package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func init() {
	register(Experiment{
		ID: "table1", Paper: "Table 1",
		Desc: "dataset statistics (synthetic presets standing in for the originals)",
		Run:  runTable1,
	})
	register(Experiment{
		ID: "table2", Paper: "Table 2",
		Desc: "preprocessing times: BFS per landmark, landmark embedding, per-node embedding",
		Run:  runTable2,
	})
	register(Experiment{
		ID: "table3", Paper: "Table 3",
		Desc: "preprocessing storage vs original graph size",
		Run:  runTable3,
	})
}

func runTable1(w io.Writer, sc Scale) error {
	e, _ := Get("table1")
	header(w, e)
	type dsRow struct {
		st   graph.Stats
		hop2 float64
	}
	rows := make([]dsRow, len(gen.Datasets))
	cells := make([]func() error, len(gen.Datasets))
	for i, d := range gen.Datasets {
		i, d := i, d
		cells[i] = func() error {
			g, err := loadPreset(d, sc)
			if err != nil {
				return err
			}
			rows[i] = dsRow{
				st:   graph.ComputeStats(g),
				hop2: graph.AvgKHopSize(g, 2, 40, graph.Both),
			}
			return nil
		}
	}
	if err := runCells(cells); err != nil {
		return err
	}
	t := metrics.NewTable("dataset", "nodes", "edges", "avg-deg", "p99-deg", "adj-bytes", "avg-2hop", "paper-nodes", "paper-edges", "paper-size")
	for i, d := range gen.Datasets {
		st := rows[i].st
		spec := gen.Specs[d]
		t.AddRow(string(d), st.Nodes, st.Edges, st.AvgOutDeg, st.DegreeP99, st.AdjListSize,
			fmt.Sprintf("%.0f", rows[i].hop2), spec.PaperNodes, spec.PaperEdges, spec.PaperSizeDisk)
	}
	_, err := fmt.Fprint(w, t.String())
	return err
}

func runTable2(w io.Writer, sc Scale) error {
	e, _ := Get("table2")
	header(w, e)
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(g, sysConfig(core.PolicyEmbed, sc))
	if err != nil {
		return err
	}
	p := sys.Prep()
	perLandmarkBFS := time.Duration(0)
	if p.Landmarks > 0 {
		perLandmarkBFS = p.BFSTime / time.Duration(p.Landmarks)
	}
	perNodeEmbed := time.Duration(0)
	if n := g.NumNodes(); n > 0 {
		perNodeEmbed = p.EmbedNodeTime / time.Duration(n)
	}
	t := metrics.NewTable("phase", "measured", "paper (WebGraph, 106M nodes)")
	t.AddRow("landmark selection", p.SelectTime, "-")
	t.AddRow("BFS per landmark", perLandmarkBFS, "35 s")
	t.AddRow("BFS total ("+fmt.Sprint(p.Landmarks)+" landmarks)", p.BFSTime, "-")
	t.AddRow("embedding total", p.EmbedNodeTime, "-")
	t.AddRow("embedding per node", perNodeEmbed, "1 s")
	if st := sys.Embedding().BuildStats(); st.Placed > 0 {
		t.AddRow("  objective evaluations per node", fmt.Sprintf("%.1f", st.EvalsPerNode()), "-")
		t.AddRow("  searches ended by the iteration cap", fmt.Sprintf("%.1f%%", 100*float64(st.Capped)/float64(st.Placed)), "-")
	}
	_, err = fmt.Fprint(w, t.String())
	return err
}

func runTable3(w io.Writer, sc Scale) error {
	e, _ := Get("table3")
	header(w, e)
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(g, sysConfig(core.PolicyEmbed, sc))
	if err != nil {
		return err
	}
	p := sys.Prep()
	t := metrics.NewTable("structure", "bytes", "fraction-of-graph", "paper")
	frac := func(b int64) string {
		if p.GraphBytes == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", float64(b)/float64(p.GraphBytes))
	}
	t.AddRow("landmark d(u,p) table", p.LandmarkBytes, frac(p.LandmarkBytes), "2.8 GB vs 60.3 GB graph")
	t.AddRow("embedding coordinates", p.EmbedBytes, frac(p.EmbedBytes), "4 GB vs 60.3 GB graph")
	t.AddRow("landmark BFS index", p.IndexBytes, frac(p.IndexBytes), "-")
	t.AddRow("encoded graph (storage tier)", p.GraphBytes, "1.000", "60.3 GB")
	_, err = fmt.Fprint(w, t.String())
	return err
}
