package router

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/landmark"
)

// Prep enumerates how much smart-routing preprocessing a strategy needs
// before it can be constructed. Each level includes the previous one:
// embedding construction requires the landmark index.
type Prep int

const (
	// PrepNone: the strategy runs on the raw query stream (baselines).
	PrepNone Prep = iota
	// PrepLandmarks: needs the landmark selection + BFS distance index and
	// the node→processor assignment (Section 3.4.1).
	PrepLandmarks
	// PrepEmbedding: additionally needs the graph embedding (Section 3.4.2).
	PrepEmbedding
)

// The routing parameters both transports run with unless configured:
// Eq 3/7's LoadFactor and Eq 5's α at the paper's optima (Fig 11a/b).
const (
	DefaultLoadFactor = 20
	DefaultAlpha      = 0.5
)

// Resources carries the deployment-time inputs a strategy constructor may
// draw on. Fields beyond the Prep level the strategy registered with may
// be nil; constructors must check what they use.
type Resources struct {
	// Procs is the processing-tier size; Pick must return values in
	// [0, Procs).
	Procs int
	// Seed drives any stochastic initialisation (identical seeds give
	// identical strategies).
	Seed int64
	// LoadFactor is Eq 3/7's load-balancing divisor (0 disables the load
	// term; both transports default it to DefaultLoadFactor).
	LoadFactor float64
	// Alpha is Eq 5's EMA smoothing parameter (both transports default it
	// to DefaultAlpha).
	Alpha float64
	// Graph is the dataset being served (nil when the deployment hides it,
	// e.g. a baseline networked router).
	Graph *graph.Graph
	// Index is the landmark BFS distance index (non-nil when the
	// registration declared PrepLandmarks or higher). Topology-aware
	// strategies keep it so they can re-derive processor assignments when
	// the tier scales.
	Index *landmark.Index
	// Assignment is the landmark node→processor distance table (non-nil
	// when the registration declared PrepLandmarks or higher).
	Assignment *landmark.Assignment
	// Embedding is the graph embedding (non-nil when the registration
	// declared PrepEmbedding).
	Embedding *embed.Embedding
}

// Constructor builds a fresh strategy instance for one deployment/run.
type Constructor func(Resources) (Strategy, error)

// Registration is one registry entry binding a policy name to its id and
// constructor.
type Registration struct {
	// Name is the policy name used by Policy.String, ParsePolicy and the
	// daemons' -policy flags.
	Name string
	// ID is the stable integer the core Policy type wraps.
	ID int
	// Prep declares the preprocessing the constructor's Resources must
	// carry.
	Prep Prep
	// New builds the strategy.
	New Constructor
}

var (
	regMu  sync.RWMutex
	byName = make(map[string]*Registration)
	byID   = make(map[int]*Registration)
	nextID int
)

// The built-in policy ids, matching core.Policy's constants.
const (
	idNoCache = iota
	idNextReady
	idHash
	idLandmark
	idEmbed
	idStableHash
	firstCustomID // user registrations start here
)

func init() {
	nextReady := func(Resources) (Strategy, error) { return NewNextReady(), nil }
	mustRegisterAt(idNoCache, "nocache", PrepNone, nextReady)
	mustRegisterAt(idNextReady, "nextready", PrepNone, nextReady)
	mustRegisterAt(idHash, "hash", PrepNone, func(Resources) (Strategy, error) { return NewHash(), nil })
	mustRegisterAt(idLandmark, "landmark", PrepLandmarks, func(r Resources) (Strategy, error) {
		if r.Index == nil || r.Assignment == nil {
			return nil, fmt.Errorf("router: landmark strategy needs the landmark index and assignment (preprocessing did not run?)")
		}
		return NewLandmark(r.Index, r.Assignment, r.LoadFactor), nil
	})
	mustRegisterAt(idEmbed, "embed", PrepEmbedding, func(r Resources) (Strategy, error) {
		if r.Embedding == nil {
			return nil, fmt.Errorf("router: embed strategy needs the graph embedding (preprocessing did not run?)")
		}
		return NewEmbed(r.Embedding, r.Procs, r.Alpha, r.LoadFactor, r.Seed+1)
	})
	mustRegisterAt(idStableHash, "stablehash", PrepNone, func(r Resources) (Strategy, error) {
		if r.Procs <= 0 {
			return nil, fmt.Errorf("router: stablehash strategy needs procs > 0, got %d", r.Procs)
		}
		return NewStableHash(r.Procs), nil
	})
	nextID = firstCustomID
}

func mustRegisterAt(id int, name string, prep Prep, ctor Constructor) {
	byName[name] = &Registration{Name: name, ID: id, Prep: prep, New: ctor}
	byID[id] = byName[name]
}

// Register adds a named strategy to the registry and returns its allocated
// id. Built-ins occupy ids 0–5; registered strategies get increasing ids
// after them, in registration order. Empty and duplicate names error.
func Register(name string, prep Prep, ctor Constructor) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("router: empty strategy name")
	}
	if ctor == nil {
		return 0, fmt.Errorf("router: nil constructor for strategy %q", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := byName[name]; ok {
		return 0, fmt.Errorf("router: strategy %q already registered", name)
	}
	id := nextID
	nextID++
	r := &Registration{Name: name, ID: id, Prep: prep, New: ctor}
	byName[name] = r
	byID[id] = r
	return id, nil
}

// LookupName returns the registration for a policy name.
func LookupName(name string) (Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	if r, ok := byName[name]; ok {
		return *r, true
	}
	return Registration{}, false
}

// LookupID returns the registration for a policy id.
func LookupID(id int) (Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	if r, ok := byID[id]; ok {
		return *r, true
	}
	return Registration{}, false
}

// Names lists every registered policy name in id order (built-ins first,
// then user strategies in registration order).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = byID[id].Name
	}
	return out
}
