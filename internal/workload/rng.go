package workload

import (
	"math"

	"perfstacks/internal/splitmix"
)

// hash64 mixes values into a stable 64-bit hash, used to derive static
// (per-PC) instruction properties that must be identical every time a basic
// block re-executes.
func hash64(vs ...uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 0x100000001b3
		}
	}
	// Final avalanche.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// zipfIndex draws an index in [0, n) with a Zipf-like skew: low indices are
// much more likely. skew in [0, 1): higher = more concentrated.
func zipfIndex(r *splitmix.Source, n int, skew float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-power transform of a uniform draw: cheap and monotone.
	u := r.Float64()
	exp := 1.0 / (1.0 - skew*0.999)
	idx := int(math.Pow(u, exp) * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}
