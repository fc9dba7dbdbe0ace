// Package splitmix is the tree's one pseudo-random generator: SplitMix64, a
// tiny, fast generator whose stream depends only on its seed, identically on
// every platform. The trace generators, the fault injectors and the peer
// cache's retry jitter all draw from it, so a seeded run reproduces exactly
// (the determinism analyzer bans math/rand's global state in simulation
// packages).
package splitmix

// Source is a SplitMix64 generator. The zero value is a valid source seeded
// with 0. It is not safe for concurrent use.
type Source struct{ state uint64 }

// New returns a source seeded with seed.
func New(seed uint64) Source { return Source{state: seed} }

// Next returns the next 64 pseudo-random bits.
func (s *Source) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n), and 0 for n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.Next() % uint64(n))
}
