package rpc

import (
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

// networkConfig is the core.Config of a router started through
// NewRouterServer: router.NetworkTables' shape (materialising p when it is
// set) at the default routing parameters.
func networkConfig(policy core.Policy, procs int, seed int64, p embed.Embedder) core.Config {
	nt := router.NetworkTables
	return core.Config{
		Policy: policy, Processors: procs, Seed: seed, EmbedProvider: p,
		Landmarks: nt.Landmarks, MinSeparation: nt.MinSeparation, Dimensions: nt.Dimensions,
	}
}

// BuildStrategyEmbed builds the strategy NewRouterServer would for a
// registered policy over an already materialised coordinate table: a non-nil
// emb replaces the learned embedding wholesale and is returned as-is even for
// policies that route without coordinates, so KNearest works under every
// policy.
func BuildStrategyEmbed(policy string, g *graph.Graph, procs int, seed int64, emb *embed.Embedding) (router.Strategy, *embed.Embedding, error) {
	pol, err := core.ParsePolicy(policy)
	if err != nil {
		return nil, nil, err
	}
	var p embed.Embedder
	if emb != nil {
		p = embed.NewFileProvider(emb)
	}
	strat, coords, err := configStrategy(g, networkConfig(pol, procs, seed, p))
	return strat, coords.Embedding, err
}
