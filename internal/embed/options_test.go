package embed

import (
	"runtime"
	"testing"
)

// TestOptionsWithDefaults pins the withDefaults contract: the placement
// searches' own tolerance (1e-3, in the objective's units) and first simplex
// edge (2.5 hops) unless the caller names others, and the NM.MaxIter mutation —
// the cap is scaled by the search dimensionality UNCONDITIONALLY, so an
// explicit MaxIter gets the same +12·D top-up the default does. The
// embedding's output changes if any of these drifts, so they are pinned here.
func TestOptionsWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Options
		want Options
	}{
		{
			name: "zero value takes paper defaults",
			in:   Options{},
			want: Options{Dimensions: 10, Workers: runtime.GOMAXPROCS(0),
				NM: NMOptions{MaxIter: 100 + 12*10, Tol: 1e-3, Step: 2.5}},
		},
		{
			name: "explicit MaxIter still gains the dimensional top-up",
			in:   Options{Dimensions: 4, NM: NMOptions{MaxIter: 60}},
			want: Options{Dimensions: 4, Workers: runtime.GOMAXPROCS(0),
				NM: NMOptions{MaxIter: 60 + 12*4, Tol: 1e-3, Step: 2.5}},
		},
		{
			name: "negative knobs normalise like zero",
			in:   Options{Dimensions: -3, Workers: -1, NM: NMOptions{MaxIter: -5}},
			want: Options{Dimensions: 10, Workers: runtime.GOMAXPROCS(0),
				NM: NMOptions{MaxIter: 100 + 12*10, Tol: 1e-3, Step: 2.5}},
		},
		{
			name: "seed and NM tolerances pass through untouched",
			in:   Options{Dimensions: 2, Seed: 99, Workers: 3, NM: NMOptions{MaxIter: 10, Tol: 0.5, Step: 2}},
			want: Options{Dimensions: 2, Seed: 99, Workers: 3,
				NM: NMOptions{MaxIter: 10 + 12*2, Tol: 0.5, Step: 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.withDefaults(); got != tc.want {
				t.Fatalf("withDefaults(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

// TestNewOptionsFunctional pins the functional-option constructor against
// the plain struct: both spellings produce the identical Options.
func TestNewOptionsFunctional(t *testing.T) {
	got := NewOptions(WithDimensions(6), WithSeed(42), WithWorkers(2),
		WithNM(NMOptions{MaxIter: 80}))
	want := Options{Dimensions: 6, Seed: 42, Workers: 2, NM: NMOptions{MaxIter: 80}}
	if got != want {
		t.Fatalf("NewOptions = %+v, want %+v", got, want)
	}
}
