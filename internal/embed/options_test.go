package embed

import (
	"testing"
)

// TestOptionsWithDefaults pins the withDefaults contract: the paper's ten
// dimensions unless the caller names others, and the seed untouched.
func TestOptionsWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Options
		want Options
	}{
		{"zero value takes paper defaults", Options{}, Options{Dimensions: 10}},
		{"negative knobs normalise like zero", Options{Dimensions: -3}, Options{Dimensions: 10}},
		{"dimensions and seed pass through untouched", Options{Dimensions: 2, Seed: 99}, Options{Dimensions: 2, Seed: 99}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.withDefaults(); got != tc.want {
				t.Fatalf("withDefaults(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}
