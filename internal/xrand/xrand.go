// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// Every stochastic component (graph generators, workload generators, the
// embedding optimiser, tie-breaking in the router) draws from an explicitly
// seeded xrand.Source so that a run is reproducible bit-for-bit from its
// seed. The implementation is SplitMix64 for seeding and xoshiro256** for
// the stream, both public-domain algorithms with well-studied statistical
// behaviour and no shared global state.
package xrand

import "math"

// Source is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; create one Source per goroutine (see Split).
type Source struct {
	s [4]uint64
}

// splitmix64 advances *x and returns the next SplitMix64 output. It is used
// to expand a 64-bit seed into the 256-bit xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two Sources with the same seed
// produce identical streams.
func New(seed int64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed restarts s on the stream New(seed) produces, so a long-lived Source
// can be reused without allocating.
func (s *Source) Seed(seed int64) {
	x := uint64(seed)
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// A state of all zeros is the one forbidden state for xoshiro.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent child Source from s. The child's stream is
// decorrelated from the parent's continuation, letting callers hand
// deterministic sub-streams to worker goroutines.
func (s *Source) Split() *Source {
	var c Source
	x := s.Uint64() ^ 0x6a09e667f3bcc909
	for i := range c.s {
		c.s[i] = splitmix64(&x)
	}
	if c.s[0]|c.s[1]|c.s[2]|c.s[3] == 0 {
		c.s[0] = 1
	}
	return &c
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit value.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}
