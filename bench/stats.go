package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the 0.5-quantile of xs (unsorted input).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) gives them (the "exclusive"
// method), because that is how the driver computes a spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return quantile(s, 0.5), quantile(s, 0.5), quantile(s, 0.5)
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of xs as a share of their median —
// the run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// blockQuantiles cuts vals (in schedule order) into consecutive blocks of
// size samples and returns the q-quantile inside every full block; the
// ragged tail is dropped.
func blockQuantiles(vals []float64, size int, q float64) []float64 {
	var out []float64
	for lo := 0; lo+size <= len(vals); lo += size {
		out = append(out, quantile(sortedCopy(vals[lo:lo+size]), q))
	}
	return out
}
