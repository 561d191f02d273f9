package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/landmark"
	"repro/internal/query"
)

func init() {
	register("knn", "beyond the paper (embedding providers)", "k-nearest-by-embedding under every routing policy: one precomputed embedding shared through the provider interface, every answer checked against the exact oracle", runKNN)
}

// knnK is how many neighbours each KNearest query asks for.
const knnK = 8

// knnBudget is the per-partition visit budget the mix's BoundedReach
// queries carry (same reasoning as the patterns experiment).
const knnBudget = 8

// knnPolicies: the hash baselines and the two smart schemes. Only
// PolicyEmbed builds an embedding on its own; the shared provider gives
// the other three identical coordinates, so KNearest answers — and the
// oracle they are checked against — are the same in every cell. What
// differs across cells is routing: how often a query's candidate
// neighbourhood is already cached on the processor it lands on.
var knnPolicies = []core.Policy{core.PolicyHash, core.PolicyStableHash, core.PolicyLandmark, core.PolicyEmbed}

// runKNN compares the routing policies on the MixedTypesKNN workload —
// every sixth query a KNearest — with one precomputed embedding shared
// across all cells via the FileProvider, exactly how a deployment shares
// an artifact between transports. Candidate generation runs distributed
// (the ball BFS on the anchor's processor), the exact re-rank at the
// coordinator, and every answer of every kind is verified against the
// in-memory oracle (AnswerKNN for the new class) as it streams.
func runKNN(sc Scale) (Result, error) {
	g, err := loadPreset(gen.WebGraph, sc)
	if err != nil {
		return Result{}, err
	}

	// One embedding for every cell, built once with the run's smart-routing
	// parameters and shared through the provider interface. NewFileProvider
	// wraps it without touching disk; a deployment would WriteEmbeddingFile
	// and point groutingd -embed-file at the artifact.
	lms := landmark.Select(g, sc.Landmarks, sc.MinSep)
	idx := landmark.BuildIndex(g, lms, 0)
	shared, err := embed.Build(g, idx, embed.Options{
		Dimensions: sc.Dims, Seed: sc.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	provider := embed.NewFileProvider(shared)

	qs := query.Hotspot(g, query.WorkloadSpec{
		NumHotspots:       sc.Hotspots,
		QueriesPerHotspot: sc.PerHotspot,
		R:                 2,
		H:                 2,
		Types:             query.MixedTypesKNN,
		VisitBudget:       knnBudget,
		K:                 knnK,
		Seed:              sc.Seed + 1,
	})
	knnQ := 0
	for _, q := range qs {
		if q.Type == query.KNearest {
			knnQ++
		}
	}
	if knnQ == 0 {
		return Result{}, fmt.Errorf("the mix generated no KNearest queries")
	}

	rows, err := policyRows(knnPolicies, func(policy core.Policy) ([]any, error) {
		return runKNNCell(g, sc, policy, provider, shared, qs)
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Tables: []Table{{
			Columns: columns("policy", "goodput q/s|%.0f", "hit%|%.1f", "subtasks", "non-empty"),
			Rows:    rows,
		}},
		Foot: []string{
			fmt.Sprintf("%d of %d queries are KNearest (K=%d, %d-dim shared embedding); candidate", knnQ, len(qs), knnK, shared.D),
			"generation runs on the anchor's processor, the exact re-rank at the router.",
			"All cells rank with the same provider-shared coordinates, so the per-policy",
			"columns isolate routing quality, not embedding quality",
		},
	}, nil
}

// runKNNCell runs the KNN-heavy mix on one policy's session with the
// shared provider plugged in, verifying every answer against the oracle.
// Its row: goodput, hit%, subtasks, and the KNearest answers that returned
// at least one neighbour (an anchor with an embedded, non-trivial
// neighbourhood).
func runKNNCell(g *graphT, sc Scale, policy core.Policy, provider embed.Embedder, shared *embed.Embedding, qs []queryT) ([]any, error) {
	cfg := sysConfig(policy, sc)
	cfg.EmbedProvider = provider
	sys, err := core.NewSystem(g, cfg)
	if err != nil {
		return nil, err
	}
	ses, err := sys.NewSession()
	if err != nil {
		return nil, err
	}
	nonEmpty := 0
	t0 := ses.Now()
	for _, q := range qs {
		res, _, err := ses.Execute(q)
		if err != nil {
			return nil, err
		}
		if q.Type == query.KNearest {
			if res != query.AnswerKNN(g, shared, q) {
				return nil, fmt.Errorf("KNearest query on node %d disagrees with the oracle", q.Node)
			}
			if res.Count > 0 {
				nonEmpty++
			}
		} else if res != answer(g, q) {
			return nil, fmt.Errorf("%v query on node %d answered wrongly", q.Type, q.Node)
		}
	}
	subtasks, _, _ := ses.MultiStats()
	if subtasks == 0 {
		return nil, fmt.Errorf("no multi-anchor subtasks executed — KNearest is not reaching the distributed path")
	}
	if nonEmpty == 0 {
		return nil, fmt.Errorf("every KNearest answer came back empty — the embedding is not reaching the ranker")
	}
	qps, hit := sessionRates(ses, len(qs), t0)
	return []any{qps, 100 * hit, subtasks, nonEmpty}, nil
}
