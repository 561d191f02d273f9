package router

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/query"
)

func TestRegistryBuiltins(t *testing.T) {
	for name, id := range map[string]int{
		"nocache": 0, "nextready": 1, "hash": 2, "landmark": 3, "embed": 4,
	} {
		reg, ok := LookupName(name)
		if !ok {
			t.Fatalf("built-in %q not registered", name)
		}
		if reg.ID != id {
			t.Fatalf("%q id = %d, want %d", name, reg.ID, id)
		}
		if back, ok := LookupID(id); !ok || back.Name != name {
			t.Fatalf("id %d resolves to %+v, want %q", id, back, name)
		}
	}
	if _, ok := LookupName("bogus"); ok {
		t.Fatal("bogus name resolved")
	}
}

// build constructs the registered strategy name from res, the way core, rpc
// and the root resolve a registration.
func build(t *testing.T, name string, res Resources) (Strategy, error) {
	t.Helper()
	reg, ok := LookupName(name)
	if !ok {
		t.Fatalf("%q not registered", name)
	}
	return reg.New(res)
}

func TestRegistryBuildBaselines(t *testing.T) {
	for _, name := range []string{"nocache", "nextready", "hash"} {
		s, err := build(t, name, Resources{Procs: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p := s.Pick(query.Query{Node: 5}, []int{0, 0, 0}); p < 0 || p > 2 {
			t.Fatalf("%s picked %d", name, p)
		}
	}
}

func TestRegistrySmartStrategiesNeedPrep(t *testing.T) {
	// Without preprocessing products the smart constructors must refuse.
	if _, err := build(t, "landmark", Resources{Procs: 2, LoadFactor: DefaultLoadFactor}); err == nil {
		t.Fatal("landmark built without assignment")
	}
	if _, err := build(t, "embed", Resources{Procs: 2, Alpha: DefaultAlpha, LoadFactor: DefaultLoadFactor}); err == nil {
		t.Fatal("embed built without embedding")
	}
	// With them, they build and route.
	g := gen.Grid(10, 1)
	idx := landmark.BuildIndex(g, []graph.NodeID{0, 9}, 0)
	if _, err := build(t, "landmark", Resources{Procs: 2, LoadFactor: DefaultLoadFactor, Assignment: landmark.Assign(idx, 2)}); err == nil {
		t.Fatal("landmark built without its index")
	}
	s, err := build(t, "landmark", Resources{Procs: 2, LoadFactor: DefaultLoadFactor, Index: idx, Assignment: landmark.Assign(idx, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "landmark" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestRegisterCustom(t *testing.T) {
	ctor := func(r Resources) (Strategy, error) { return NewHash(), nil }
	id, err := Register("registry-test-custom", PrepNone, ctor)
	if err != nil {
		t.Fatal(err)
	}
	if id < firstCustomID {
		t.Fatalf("custom id %d collides with built-ins", id)
	}
	if _, err := Register("registry-test-custom", PrepNone, ctor); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := Register("", PrepNone, ctor); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := Register("registry-test-nil", PrepNone, nil); err == nil {
		t.Fatal("nil constructor accepted")
	}
	names := Names()
	found := false
	for _, n := range names {
		if n == "registry-test-custom" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v missing custom entry", names)
	}
	// Built-ins come first, in id order.
	if names[0] != "nocache" || names[4] != "embed" {
		t.Fatalf("Names() order wrong: %v", names)
	}
}
