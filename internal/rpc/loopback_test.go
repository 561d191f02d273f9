package rpc

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/query"
	"repro/internal/simnet"
)

// TestLoopbackRefusesWhatSocketsCannotHonour pins the written difference
// between the transports: every Config field a deployment of real daemons
// cannot honour is refused with ErrUnsupported before anything starts, and
// the fields it does honour start a deployment that answers like the oracle.
func TestLoopbackRefusesWhatSocketsCannotHonour(t *testing.T) {
	ctx := context.Background()
	g := gen.LocalWeb(400, 6, 40, 0.01, 3)
	base := core.Config{Processors: 2, StorageServers: 2, Policy: core.PolicyHash}
	for _, c := range []struct {
		field string
		set   func(*core.Config)
	}{
		{"Network", func(c *core.Config) { c.Network = simnet.Ethernet() }},
		{"NoBatching", func(c *core.Config) { c.NoBatching = true }},
		{"StorageAffinity", func(c *core.Config) { c.StorageAffinity = 4 }},
		{"Placer", func(c *core.Config) { c.Placer = kvstore.MurmurPlacer{} }},
		{"FailedProcessors", func(c *core.Config) { c.FailedProcessors = []int{1} }},
		{"AdaptivePlacement", func(c *core.Config) { c.AdaptivePlacement = true }},
	} {
		cfg := base
		c.set(&cfg)
		if d, err := Loopback(ctx, g, cfg); !errors.Is(err, ErrUnsupported) {
			if d != nil {
				d.Close()
			}
			t.Errorf("%s: err = %v, want ErrUnsupported", c.field, err)
		}
	}

	q := query.Query{Type: query.NeighborAgg, Node: 10, Hops: 2, Dir: graph.Out}
	for _, c := range []struct {
		name string
		set  func(*core.Config)
	}{
		{"plain", func(*core.Config) {}},
		{"StorageDir", func(c *core.Config) { c.StorageDir = t.TempDir() }},
		{"StorageReplicas", func(c *core.Config) { c.StorageReplicas = 2 }},
		{"PreprocessFraction", func(c *core.Config) { c.Policy, c.PreprocessFraction = core.PolicyLandmark, 0.5 }},
	} {
		cfg := base
		c.set(&cfg)
		_, cl := startLoopback(t, g, cfg)
		if got, err := cl.Execute(ctx, q); err != nil || got != query.Answer(g, q) {
			t.Errorf("%s: got %+v, %v; want %+v", c.name, got, err, query.Answer(g, q))
		}
	}
}
