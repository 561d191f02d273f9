package gen

import (
	"fmt"

	"repro/internal/graph"
)

// Dataset names one of the paper's four graphs (Table 1).
type Dataset string

const (
	// WebGraph models uk-2007-05: very skewed degrees, dense linkage,
	// strongly overlapping local neighbourhoods. Paper: 106M nodes, 3.7B
	// edges, avg 2-hop neighbourhood 52K.
	WebGraph Dataset = "webgraph"
	// Friendster models the SNAP Friendster sample: social topology with a
	// huge 2-hop neighbourhood (paper: 0.3M avg), which makes caching less
	// effective (Figure 16b).
	Friendster Dataset = "friendster"
	// Memetracker models the news/quote cascade graph: moderate density,
	// temporal-cascade structure. Paper: 97M nodes, 418M edges.
	Memetracker Dataset = "memetracker"
	// Freebase models the knowledge graph: sparse (fewer edges than nodes),
	// labelled, hub entities. Paper: 50M nodes, 47M edges.
	Freebase Dataset = "freebase"
)

// Datasets lists the presets in Table 1 order.
var Datasets = []Dataset{WebGraph, Friendster, Memetracker, Freebase}

// PresetSpec records the shape parameters of a preset at scale 1.0 together
// with the statistics of the paper's original for documentation output.
type PresetSpec struct {
	Name          Dataset
	BaseNodes     int     // nodes at scale 1.0
	EdgeFactor    float64 // edges per node at scale 1.0
	PaperNodes    int64   // original dataset, for Table 1 rendering
	PaperEdges    int64
	PaperSizeDisk string
}

// Specs maps every preset to its generation parameters. BaseNodes are
// chosen so that scale 1.0 runs comfortably on one machine while keeping
// each dataset's relative density.
var Specs = map[Dataset]PresetSpec{
	WebGraph:    {Name: WebGraph, BaseNodes: 60000, EdgeFactor: 12, PaperNodes: 105896555, PaperEdges: 3738733648, PaperSizeDisk: "60.3 GB"},
	Friendster:  {Name: Friendster, BaseNodes: 40000, EdgeFactor: 27, PaperNodes: 65608366, PaperEdges: 1806067135, PaperSizeDisk: "33.5 GB"},
	Memetracker: {Name: Memetracker, BaseNodes: 55000, EdgeFactor: 4.3, PaperNodes: 96608034, PaperEdges: 418237269, PaperSizeDisk: "8.2 GB"},
	Freebase:    {Name: Freebase, BaseNodes: 30000, EdgeFactor: 0.94, PaperNodes: 49731389, PaperEdges: 46708421, PaperSizeDisk: "1.3 GB"},
}

// Preset generates dataset d at the given scale (1.0 = the default bench
// size; tests use much smaller scales). The same (dataset, scale, seed)
// triple always yields the same graph.
func Preset(d Dataset, scale float64, seed int64) (*graph.Graph, error) {
	spec, ok := Specs[d]
	if !ok {
		return nil, fmt.Errorf("gen: unknown dataset %q", d)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("gen: non-positive scale %v", scale)
	}
	n := int(float64(spec.BaseNodes) * scale)
	if n < 64 {
		n = 64
	}
	e := int(float64(n) * spec.EdgeFactor)
	switch d {
	case WebGraph:
		// Window and hub fraction tuned so 2-hop neighbourhoods stay a
		// small fraction of the graph with a heavy in-degree tail, like
		// the real uk-2007-05 crawl. The tuning keeps the hotspot
		// workload's total footprint well below the graph size — the
		// regime the paper's cache-locality results live in.
		return LocalWeb(n, int(spec.EdgeFactor), 160, 0.04, seed), nil
	case Friendster:
		m := int(spec.EdgeFactor)
		return BarabasiAlbert(n, m, seed), nil
	case Memetracker:
		return Cascade(n, spec.EdgeFactor, seed), nil
	case Freebase:
		return KnowledgeGraph(n, e, 40, 120, seed), nil
	}
	return nil, fmt.Errorf("gen: unhandled dataset %q", d)
}
