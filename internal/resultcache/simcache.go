package resultcache

import (
	"perfstacks/internal/config"
	"perfstacks/internal/export"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// RunKey derives the content address of one simulation: canonical machine
// bytes, canonical option bytes, traceID (the identity of the uop stream)
// and the result schema version. It is the one key layout: every consumer
// of the cache (simd, sweep, experiments) derives keys through it, so they
// can share a cache directory and hit each other's entries.
func RunKey(m config.Machine, opts sim.Options, traceID []byte) (Key, error) {
	mb, err := sim.CanonicalMachine(m)
	if err != nil {
		return Key{}, err
	}
	ob, err := sim.CanonicalOptions(opts)
	if err != nil {
		return Key{}, err
	}
	return KeyOf(mb, ob, traceID, []byte(sim.SchemaVersion)), nil
}

// SimKey derives the content address of a generator-driven simulation; the
// trace identity is the profile plus the uop budget (the generator is a
// pure function of the two).
func SimKey(m config.Machine, prof workload.Profile, uops uint64, opts sim.Options) (Key, error) {
	tid, err := sim.CanonicalBytes("workload", struct {
		Profile workload.Profile
		Uops    uint64
	}{prof, uops})
	if err != nil {
		return Key{}, err
	}
	return RunKey(m, opts, tid)
}

// RunSPEC serves a generator-driven simulation from the cache, simulating
// and storing on a miss. uops is the total trace length (warm-up included;
// the warm-up split lives in opts.WarmupUops). A nil cache is a plain
// sim.Run: no key is derived and nothing is encoded. A cache entry that
// fails to decode (old schema, damaged payload) is treated as a miss and
// overwritten. hit reports whether the result came from the cache.
func RunSPEC(c *Cache, m config.Machine, prof workload.Profile, uops uint64, opts sim.Options) (res sim.Result, hit bool) {
	if c == nil {
		return sim.Run(m, trace.NewLimit(workload.NewGenerator(prof), uops), opts), false
	}
	key, err := SimKey(m, prof, uops, opts)
	if err != nil {
		return sim.Result{Err: err}, false
	}
	if payload, ok := c.Get(key); ok {
		if r, _, err := export.DecodeResult(payload); err == nil {
			return *r, true
		}
	}
	res = sim.Run(m, trace.NewLimit(workload.NewGenerator(prof), uops), opts)
	if res.Err != nil {
		return res, false
	}
	payload, err := export.EncodeResult(&res, prof.Name)
	if err != nil {
		// The measurement stands even if it cannot be cached.
		return res, false
	}
	// Best effort: a full disk costs recomputation, not correctness.
	_ = c.Put(key, payload)
	return res, false
}
