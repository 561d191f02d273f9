package rpc

import (
	"fmt"

	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/router"
)

// BuildStrategy constructs a routing strategy for the networked router
// through the strategy registry, running whatever smart-routing
// preprocessing the registration declares (landmark selection + BFS, and
// the graph embedding when required) locally over the graph. Registered
// user strategies resolve exactly like the built-ins.
func BuildStrategy(policy string, g *graph.Graph, procs int, seed int64) (router.Strategy, error) {
	strat, _, err := BuildStrategyEmbed(policy, g, procs, seed, nil)
	return strat, err
}

// BuildStrategyEmbed is BuildStrategy with the embedding surfaced: it
// returns the coordinate table the strategy routes by, for the router to
// re-rank KNearest queries against (RouterConfig.Embedding). A non-nil
// emb overrides the learned embedding wholesale — the provider path —
// and is returned as-is even for policies that route without
// coordinates, so KNearest works under every policy.
func BuildStrategyEmbed(policy string, g *graph.Graph, procs int, seed int64, emb *embed.Embedding) (router.Strategy, *embed.Embedding, error) {
	if policy == "" {
		policy = "nextready"
	}
	reg, ok := router.LookupName(policy)
	if !ok {
		return nil, nil, fmt.Errorf("rpc: unknown policy %q", policy)
	}
	res := router.Resources{Procs: procs, Seed: seed, LoadFactor: router.DefaultLoadFactor, Alpha: router.DefaultAlpha, Graph: g, Embedding: emb}
	if reg.Prep >= router.PrepLandmarks {
		if g == nil {
			return nil, nil, fmt.Errorf("rpc: policy %q needs a graph for preprocessing", policy)
		}
		lms := landmark.Select(g, 32, 2)
		if len(lms) < 2 {
			return nil, nil, fmt.Errorf("rpc: graph too small for landmark selection")
		}
		idx := landmark.BuildIndex(g, lms, 0)
		res.Index = idx
		res.Assignment = landmark.Assign(idx, procs)
		if reg.Prep >= router.PrepEmbedding && res.Embedding == nil {
			built, err := embed.Build(g, idx, embed.Options{Dimensions: 8, Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			res.Embedding = built
		}
	}
	strat, err := reg.New(res)
	if err != nil {
		return nil, nil, err
	}
	return strat, res.Embedding, nil
}
