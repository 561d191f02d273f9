package rpc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/router"
)

// configStrategy builds the router's strategy for cfg: the tables through
// core's one Config mapping, the registration's constructor at cfg's
// LoadFactor and Alpha. It returns the coordinates the router keeps for
// KNearest; the rest of the tables is garbage once the strategy holds what
// it routes by.
func configStrategy(g *graph.Graph, cfg core.Config) (router.Strategy, router.Coords, error) {
	tab, err := cfg.Prepare(g)
	if err != nil {
		return nil, router.Coords{}, err
	}
	strat, err := cfg.Strategy(tab)
	return strat, tab.Coords, err
}

// NetworkStrategy builds the strategy of a router started through
// grouting.ServeRouter for a registered policy: configStrategy over
// router.NetworkTables' shape (materialising p when it is set) at the
// default routing parameters.
func NetworkStrategy(policy string, g *graph.Graph, procs int, seed int64, p embed.Embedder) (router.Strategy, router.Coords, error) {
	reg, ok := router.LookupName(policy)
	if !ok {
		return nil, router.Coords{}, fmt.Errorf("rpc: unknown policy %q", policy)
	}
	nt := router.NetworkTables
	return configStrategy(g, core.Config{
		Policy: core.Policy(reg.ID), Processors: procs, Seed: seed, EmbedProvider: p,
		Landmarks: nt.Landmarks, MinSeparation: nt.MinSeparation, Dimensions: nt.Dimensions,
	})
}

// BuildStrategyEmbed is NetworkStrategy over an already materialised
// coordinate table: a non-nil emb replaces the learned embedding wholesale
// and is returned as-is even for policies that route without coordinates,
// so KNearest works under every policy.
func BuildStrategyEmbed(policy string, g *graph.Graph, procs int, seed int64, emb *embed.Embedding) (router.Strategy, *embed.Embedding, error) {
	var p embed.Embedder
	if emb != nil {
		p = embed.NewFileProvider(emb)
	}
	strat, coords, err := NetworkStrategy(policy, g, procs, seed, p)
	return strat, coords.Embedding, err
}
