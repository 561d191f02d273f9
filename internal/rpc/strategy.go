package rpc

import (
	"fmt"

	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/router"
)

// NetworkStrategy builds the networked router's strategy for a registered
// policy: router.Prepare over router.NetworkTables (materialising p when it
// is set), then the registration's constructor at the default routing
// parameters. It returns the coordinates the router keeps for KNearest; the
// rest of the tables is garbage once the strategy holds what it routes by.
func NetworkStrategy(policy string, g *graph.Graph, procs int, seed int64, p embed.Embedder) (router.Strategy, router.Coords, error) {
	reg, ok := router.LookupName(policy)
	if !ok {
		return nil, router.Coords{}, fmt.Errorf("rpc: unknown policy %q", policy)
	}
	spec := router.NetworkTables
	spec.Seed, spec.Provider = seed, p
	tab, err := router.Prepare(g, reg, procs, spec)
	if err != nil {
		return nil, router.Coords{}, err
	}
	strat, err := reg.New(tab.Resources(router.DefaultLoadFactor, router.DefaultAlpha))
	return strat, tab.Coords, err
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
