package grouting

import (
	"fmt"

	"repro/internal/router"
)

// Smart routing strategies are the heart of the system (Section 3.4), and
// they are an open extension point: implement the Strategy interface,
// register it with RegisterStrategy, and the returned Policy works
// everywhere a built-in does — Config.Policy (or WithPolicy) on the
// virtual-time system, RouterSpec.Policy on a networked deployment, the
// daemons' -policy flags via ParsePolicy, and Policy.String round-trips.

type (
	// Strategy decides the destination processor for each query.
	//
	// Pick receives the per-processor loads (queue lengths on the
	// virtual-time router, in-flight counts on the networked one) and
	// returns the destination index in [0, len(loads)). Observe is invoked
	// after the router commits the decision, letting stateful strategies
	// learn the dispatch history. DecisionUnits reports the per-query
	// decision cost in abstract units (e.g. P for landmark, P·D for embed)
	// that the virtual-time engine converts to routing time.
	//
	// The routers call Pick/Observe while holding their own lock, so a
	// strategy needs no internal synchronisation unless it shares state
	// beyond the router.
	Strategy = router.Strategy
	// DistanceAware is optionally implemented by strategies that can score
	// how close a query is to a processor's (inferred) cache contents; the
	// virtual-time router uses it for locality-aware query stealing and
	// dead-processor diversion (Section 3.4.1).
	DistanceAware = router.DistanceAware
	// StrategyResources carries the deployment-time inputs a strategy
	// constructor may draw on: tier size, seed, tuning parameters, the
	// graph, and — when the registration requires them — the landmark
	// assignment and graph embedding.
	StrategyResources = router.Resources
	// StrategyConstructor builds a fresh strategy instance for one
	// deployment (or one workload run on the virtual-time system).
	StrategyConstructor = router.Constructor
)

// RegisterOption qualifies a strategy registration.
type RegisterOption func(*router.Prep)

// RequireLandmarks declares that the strategy's constructor needs the
// landmark preprocessing products (StrategyResources.Assignment).
func RequireLandmarks() RegisterOption {
	return func(p *router.Prep) {
		if *p < router.PrepLandmarks {
			*p = router.PrepLandmarks
		}
	}
}

// RequireEmbedding declares that the strategy's constructor needs the
// graph embedding (StrategyResources.Embedding, which implies the landmark
// products too).
func RequireEmbedding() RegisterOption {
	return func(p *router.Prep) { *p = router.PrepEmbedding }
}

// RegisterStrategy adds a named routing strategy to the registry and
// returns its Policy. The name must be unique and non-empty (the built-ins
// occupy "nocache", "nextready", "hash", "landmark", "embed",
// "stablehash"); violations
// panic, as misregistration is a programming error. Registration is
// typically done from a package-level var so the strategy exists before
// any deployment is assembled:
//
//	var PolicyMine = grouting.RegisterStrategy("mine", newMine)
func RegisterStrategy(name string, ctor StrategyConstructor, opts ...RegisterOption) Policy {
	prep := router.PrepNone
	for _, o := range opts {
		o(&prep)
	}
	id, err := router.Register(name, prep, ctor)
	if err != nil {
		panic("grouting: " + err.Error())
	}
	return Policy(id)
}

// NewStrategy constructs the registered strategy behind p from res —
// useful for composing strategies out of the built-ins and for testing a
// strategy outside a deployment.
func NewStrategy(p Policy, res StrategyResources) (Strategy, error) {
	reg, ok := router.LookupID(int(p))
	if !ok {
		return nil, fmt.Errorf("grouting: unknown policy %v", p)
	}
	return reg.New(res)
}

// StrategyInfo describes one strategy-registry entry.
type StrategyInfo struct {
	// Name is the registered name (what ParsePolicy accepts and
	// Policy.String prints).
	Name string
	// Policy is the registry-backed Policy value.
	Policy Policy
	// NeedsLandmarks / NeedsEmbedding report the preprocessing the
	// strategy's constructor requires.
	NeedsLandmarks bool
	NeedsEmbedding bool
}

// StrategyRegistry lists every registered strategy with its preprocessing
// requirements (what `grouting-cli -policy list` prints), in registry
// order: built-ins first, then user strategies in registration order.
func StrategyRegistry() []StrategyInfo {
	names := router.Names()
	out := make([]StrategyInfo, 0, len(names))
	for _, n := range names {
		reg, ok := router.LookupName(n)
		if !ok {
			continue
		}
		out = append(out, StrategyInfo{
			Name:           reg.Name,
			Policy:         Policy(reg.ID),
			NeedsLandmarks: reg.Prep >= router.PrepLandmarks,
			NeedsEmbedding: reg.Prep >= router.PrepEmbedding,
		})
	}
	return out
}
