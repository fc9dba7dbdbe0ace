package main

import "runtime/metrics"

// allocCounters is a snapshot of the process's cumulative heap allocation.
type allocCounters struct{ objects, bytes uint64 }

func readAllocs() allocCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return allocCounters{objects: s[0].Value.Uint64(), bytes: s[1].Value.Uint64()}
}

// since is the allocation done between a and c.
func (c allocCounters) since(a allocCounters) allocCounters {
	return allocCounters{objects: c.objects - a.objects, bytes: c.bytes - a.bytes}
}

// gcCPUShare is the garbage collector's share of the CPU time the process
// used so far (idle time excluded).
func gcCPUShare() float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	used := s[1].Value.Float64() - s[2].Value.Float64()
	if used <= 0 {
		return 0
	}
	return s[0].Value.Float64() / used
}
