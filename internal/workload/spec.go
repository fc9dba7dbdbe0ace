package workload

import (
	"slices"
	"sync"
)

// This file defines the 36 synthetic benchmark profiles standing in for the
// paper's "all SPEC CPU 2017 single-threaded benchmarks with the reference
// input sets (36 benchmark-input combinations)": perlbench x3, gcc x5,
// x264 x3, xz x3, bwaves x2 and one profile for each remaining benchmark.
//
// The profiles are not SPEC — they are generative models tuned so that each
// named workload exhibits the qualitative behavior the paper attributes to
// it (see DESIGN.md §3): mcf is dominated by pointer-chasing loads and
// data-dependent branches; cactuBSSN has a code footprint far beyond the
// L1-I; bwaves streams prefetch-friendly data while its code marginally
// exceeds the L1-I; povray mixes hard branches with microcoded and
// multi-cycle arithmetic; imagick strings single-cycle uops behind
// multi-cycle producers; exchange2 is nearly all well-predicted ALU work.

// SPECProfiles returns the 36 benchmark-input profiles in a stable order,
// as a fresh slice the caller may modify.
func SPECProfiles() []Profile { return slices.Clone(specTable()) }

// specTable builds the profile table once. Profile holds no reference
// fields, so the copies handed out share nothing with it.
var specTable = sync.OnceValue(buildSPECProfiles)

func buildSPECProfiles() []Profile {
	var out []Profile
	add := func(p Profile) { out = append(out, p) }

	// --- Integer suite ---

	for i := 0; i < 3; i++ {
		p := perlbenchLike()
		p.Name = nameIdx("perlbench", i)
		p.Seed += uint64(i) * 7919
		p.BranchEntropy += 0.02 * float64(i)
		add(p)
	}
	for i := 0; i < 5; i++ {
		p := gccLike()
		p.Name = nameIdx("gcc", i)
		p.Seed += uint64(i) * 104729
		p.CodeFootprint += i * 24 * 1024
		p.ChaseFrac += 0.03 * float64(i%3)
		add(p)
	}
	add(mcfLike())
	add(omnetppLike())
	add(xalancbmkLike())
	for i := 0; i < 3; i++ {
		p := x264Like()
		p.Name = nameIdx("x264", i)
		p.Seed += uint64(i) * 31337
		p.StreamFrac += 0.05 * float64(i)
		add(p)
	}
	add(deepsjengLike())
	add(leelaLike())
	add(exchange2Like())
	for i := 0; i < 3; i++ {
		p := xzLike()
		p.Name = nameIdx("xz", i)
		p.Seed += uint64(i) * 27644437
		p.DataFootprint <<= uint(i)
		add(p)
	}

	// --- Floating-point suite ---

	for i := 0; i < 2; i++ {
		p := bwavesLike()
		p.Name = nameIdx("bwaves", i)
		p.Seed += uint64(i) * 65537
		p.DataFootprint += i * 8 << 20
		add(p)
	}
	add(cactuLike())
	add(namdLike())
	add(parestLike())
	add(povrayLike())
	add(lbmLike())
	add(wrfLike())
	add(blenderLike())
	add(cam4Like())
	add(imagickLike())
	add(nabLike())
	for i := 0; i < 2; i++ {
		p := fotonik3dLike()
		p.Name = nameIdx("fotonik3d", i)
		p.Seed += uint64(i) * 48611
		p.StreamStride += i * 8
		add(p)
	}
	for i := 0; i < 2; i++ {
		p := romsLike()
		p.Name = nameIdx("roms", i)
		p.Seed += uint64(i) * 15485863
		p.DataFootprint += i * 16 << 20
		add(p)
	}

	return out
}

func nameIdx(base string, i int) string {
	return base + "-" + string(rune('1'+i))
}

// SPECProfile returns a named profile ("mcf", "cactuBSSN", "bwaves-1", ...);
// ok is false when the name is unknown.
func SPECProfile(name string) (Profile, bool) {
	for _, p := range specTable() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// SPECNames lists all profile names in order.
func SPECNames() []string {
	ps := specTable()
	names := make([]string, len(ps))
	for i := range ps {
		names[i] = ps[i].Name
	}
	return names
}

func perlbenchLike() Profile {
	return Profile{
		Name: "perlbench", Seed: 0x9e11,
		LoadFrac: 0.26, StoreFrac: 0.12, MulFrac: 0.015,
		CodeFootprint: 96 * 1024, CodeSkew: 0.55, FuncLoop: 4,
		LoopBlockFrac: 0.3, InnerTrip: 8,
		BranchEntropy: 0.06, BranchLoadDep: 0.3,
		DataFootprint: 4 << 20, StreamFrac: 0.2, ChaseFrac: 0.08,
		ChaseHotBytes: 128 * 1024, ChaseHotFrac: 0.995,
		ChainBias: 0.25, ChainOnLong: 0.1,
	}
}

func gccLike() Profile {
	return Profile{
		Name: "gcc", Seed: 0x6cc,
		LoadFrac: 0.25, StoreFrac: 0.13, MulFrac: 0.01,
		CodeFootprint: 128 * 1024, CodeSkew: 0.5, FuncLoop: 4,
		LoopBlockFrac: 0.25, InnerTrip: 6,
		BranchEntropy: 0.06, BranchLoadDep: 0.35,
		DataFootprint: 8 << 20, StreamFrac: 0.25, ChaseFrac: 0.1, ChaseHotBytes: 192 * 1024, ChaseHotFrac: 0.99,
		ChainBias: 0.25, ChainOnLong: 0.1,
	}
}

func mcfLike() Profile {
	return Profile{
		Name: "mcf", Seed: 0x3cf,
		LoadFrac: 0.32, StoreFrac: 0.09, MulFrac: 0.08,
		MulBurst: 0.2, SerialChain: 0.75,
		CodeFootprint: 8 * 1024, CodeSkew: 0.7,
		LoopBlockFrac: 0.4, InnerTrip: 10,
		BranchEntropy: 0.3, BranchLoadDep: 0.9,
		DataFootprint: 16 << 20, StreamFrac: 0.08, ChaseFrac: 0.05,
		ChaseChains: 8, ChaseHotFrac: 0.997, ChaseHotBytes: 288 * 1024,
		ChaseRestart: 0.95,
		ChainBias:    0.3, ChainOnLong: 0.2,
	}
}

func omnetppLike() Profile {
	return Profile{
		Name: "omnetpp", Seed: 0x03e7,
		LoadFrac: 0.3, StoreFrac: 0.12, MulFrac: 0.02,
		CodeFootprint: 96 * 1024, CodeSkew: 0.5, FuncLoop: 4,
		LoopBlockFrac: 0.3, InnerTrip: 6,
		BranchEntropy: 0.07, BranchLoadDep: 0.5,
		DataFootprint: 8 << 20, StreamFrac: 0.15, ChaseFrac: 0.2, ChaseHotBytes: 256 * 1024, ChaseHotFrac: 0.99,
		ChainBias: 0.3, ChainOnLong: 0.15,
	}
}

func xalancbmkLike() Profile {
	return Profile{
		Name: "xalancbmk", Seed: 0xa1a,
		LoadFrac: 0.3, StoreFrac: 0.1, MulFrac: 0.01,
		CodeFootprint: 144 * 1024, CodeSkew: 0.5, FuncLoop: 5,
		LoopBlockFrac: 0.3, InnerTrip: 8,
		BranchEntropy: 0.05, BranchLoadDep: 0.4,
		DataFootprint: 6 << 20, StreamFrac: 0.3, ChaseFrac: 0.12, ChaseHotBytes: 192 * 1024, ChaseHotFrac: 0.99,
		ChainBias: 0.25, ChainOnLong: 0.1,
	}
}

func x264Like() Profile {
	return Profile{
		Name: "x264", Seed: 0x264,
		LoadFrac: 0.3, StoreFrac: 0.12, MulFrac: 0.08,
		CodeFootprint: 40 * 1024, CodeSkew: 0.6,
		LoopBlockFrac: 0.5, InnerTrip: 16,
		BranchEntropy: 0.03, FuncLoop: 4, BranchLoadDep: 0.2,
		DataFootprint: 4 << 20, StreamFrac: 0.55, ChaseFrac: 0.03, ChaseHotBytes: 96 * 1024, ChaseHotFrac: 1,
		ChainBias: 0.2, ChainOnLong: 0.15,
	}
}

func deepsjengLike() Profile {
	return Profile{
		Name: "deepsjeng", Seed: 0xdee9,
		LoadFrac: 0.24, StoreFrac: 0.1, MulFrac: 0.03,
		CodeFootprint: 48 * 1024, CodeSkew: 0.5,
		LoopBlockFrac: 0.25, InnerTrip: 5,
		BranchEntropy: 0.11, FuncLoop: 4, BranchLoadDep: 0.35,
		DataFootprint: 2 << 20, StreamFrac: 0.1, ChaseFrac: 0.1, ChaseHotBytes: 128 * 1024, ChaseHotFrac: 1,
		ChainBias: 0.3, ChainOnLong: 0.15,
	}
}

func leelaLike() Profile {
	return Profile{
		Name: "leela", Seed: 0x1ee1a,
		LoadFrac: 0.25, StoreFrac: 0.1, MulFrac: 0.04,
		CodeFootprint: 40 * 1024, CodeSkew: 0.5,
		LoopBlockFrac: 0.3, InnerTrip: 6,
		BranchEntropy: 0.09, FuncLoop: 4, BranchLoadDep: 0.3,
		DataFootprint: 1 << 20, StreamFrac: 0.15, ChaseFrac: 0.12, ChaseHotBytes: 96 * 1024, ChaseHotFrac: 1,
		ChainBias: 0.35, ChainOnLong: 0.2,
	}
}

func exchange2Like() Profile {
	return Profile{
		Name: "exchange2", Seed: 0xec4a,
		LoadFrac: 0.15, StoreFrac: 0.08, MulFrac: 0.02,
		CodeFootprint: 20 * 1024, CodeSkew: 0.7,
		LoopBlockFrac: 0.6, InnerTrip: 20,
		BranchEntropy: 0.02, BranchLoadDep: 0.1,
		DataFootprint: 256 * 1024, StreamFrac: 0.3, ChaseFrac: 0.0,
		ChainBias: 0.2, ChainOnLong: 0.05,
	}
}

func xzLike() Profile {
	return Profile{
		Name: "xz", Seed: 0x787a,
		LoadFrac: 0.28, StoreFrac: 0.12, MulFrac: 0.03,
		CodeFootprint: 28 * 1024, CodeSkew: 0.6,
		LoopBlockFrac: 0.45, InnerTrip: 12,
		BranchEntropy: 0.07, FuncLoop: 3, BranchLoadDep: 0.5,
		DataFootprint: 2 << 20, StreamFrac: 0.35, ChaseFrac: 0.12, ChaseHotBytes: 192 * 1024, ChaseHotFrac: 0.995,
		ChainBias: 0.35, ChainOnLong: 0.15,
	}
}

func bwavesLike() Profile {
	return Profile{
		Name: "bwaves", Seed: 0xb3a7e5,
		LoadFrac: 0.34, StoreFrac: 0.1, FPFrac: 0.22, FPFMAFrac: 0.4, FPVecLanes: 2,
		CodeFootprint: 44 * 1024, CodeSkew: 0.15, FuncBlocks: 16,
		LoopBlockFrac: 0.6, InnerTrip: 24,
		BranchEntropy: 0.02, BranchLoadDep: 0.1,
		DataFootprint: 64 << 20, StreamFrac: 0.9, ChaseFrac: 0.0, StreamStride: 8,
		ChainBias: 0.2, ChainOnLong: 0.2,
	}
}

func cactuLike() Profile {
	return Profile{
		Name: "cactuBSSN", Seed: 0xcac2,
		LoadFrac: 0.33, StoreFrac: 0.12, FPFrac: 0.2, FPFMAFrac: 0.5, FPVecLanes: 2,
		// One huge unrolled stencil loop body (~44 KiB) re-fetched every
		// iteration: it marginally exceeds the L1-I, producing the steady
		// short I-cache misses whose penalty the dispatch stack sees almost
		// fully and the commit stack barely sees (Figure 3b).
		CodeFootprint: 44 * 1024, FuncBlocks: 688, BlockUops: 16, FuncLoop: 50,
		CodeSkew: 0.3, LoopBlockFrac: 0,
		BranchEntropy: 0.03, BranchLoadDep: 0.1,
		DataFootprint: 768 * 1024, StreamFrac: 0.15, ChaseFrac: 0.0, StreamStride: 8,
		LocalBytes: 160 * 1024,
		ChainBias:  0.25, ChainOnLong: 0.2,
	}
}

func namdLike() Profile {
	return Profile{
		Name: "namd", Seed: 0x4a3d,
		LoadFrac: 0.28, StoreFrac: 0.08, MulFrac: 0.02, FPFrac: 0.3, FPFMAFrac: 0.55, FPVecLanes: 2,
		CodeFootprint: 24 * 1024, CodeSkew: 0.6,
		LoopBlockFrac: 0.5, InnerTrip: 14,
		BranchEntropy: 0.03, BranchLoadDep: 0.1,
		DataFootprint: 1 << 20, StreamFrac: 0.5, ChaseFrac: 0.05,
		ChainBias: 0.3, ChainOnLong: 0.3,
	}
}

func parestLike() Profile {
	return Profile{
		Name: "parest", Seed: 0xbae57,
		LoadFrac: 0.3, StoreFrac: 0.1, FPFrac: 0.25, FPFMAFrac: 0.5, FPVecLanes: 2,
		CodeFootprint: 72 * 1024, CodeSkew: 0.4,
		LoopBlockFrac: 0.4, InnerTrip: 10,
		BranchEntropy: 0.03, FuncLoop: 4, BranchLoadDep: 0.2,
		DataFootprint: 4 << 20, StreamFrac: 0.45, ChaseFrac: 0.05, ChaseHotBytes: 128 * 1024, ChaseHotFrac: 1,
		ChainBias: 0.3, ChainOnLong: 0.2,
	}
}

func povrayLike() Profile {
	return Profile{
		Name: "povray", Seed: 0xb0b4a9,
		LoadFrac: 0.24, StoreFrac: 0.09, MulFrac: 0.05, DivFrac: 0.01,
		FPFrac: 0.25, FPFMAFrac: 0.35, FPVecLanes: 1,
		SerialChain: 0.6, MulBurst: 0.15,
		CodeFootprint: 56 * 1024, CodeSkew: 0.6, FuncLoop: 6,
		LoopBlockFrac: 0.3, InnerTrip: 8,
		BranchEntropy: 0.10, BranchLoadDep: 0.25,
		DataFootprint: 192 * 1024, StreamFrac: 0.05, ChaseFrac: 0.05,
		ChaseHotBytes: 32 * 1024, ChaseHotFrac: 1, LocalBytes: 16 * 1024,
		ChainBias: 0.35, ChainOnLong: 0.3,
		MicrocodeFrac: 0.08, MicrocodeCycles: 4,
	}
}

func lbmLike() Profile {
	return Profile{
		Name: "lbm", Seed: 0x1b3,
		LoadFrac: 0.3, StoreFrac: 0.2, FPFrac: 0.3, FPFMAFrac: 0.5, FPVecLanes: 2,
		CodeFootprint: 8 * 1024, CodeSkew: 0.8,
		LoopBlockFrac: 0.7, InnerTrip: 32,
		BranchEntropy: 0.01, BranchLoadDep: 0.05,
		DataFootprint: 64 << 20, StreamFrac: 0.95, ChaseFrac: 0.0,
		ChainBias: 0.2, ChainOnLong: 0.25,
	}
}

func wrfLike() Profile {
	return Profile{
		Name: "wrf", Seed: 0x3f6,
		LoadFrac: 0.3, StoreFrac: 0.12, FPFrac: 0.28, FPFMAFrac: 0.45, FPVecLanes: 2,
		CodeFootprint: 160 * 1024, CodeSkew: 0.4, FuncBlocks: 16,
		LoopBlockFrac: 0.45, InnerTrip: 12,
		BranchEntropy: 0.02, FuncLoop: 5, BranchLoadDep: 0.1,
		DataFootprint: 32 << 20, StreamFrac: 0.7, ChaseFrac: 0.02,
		ChainBias: 0.25, ChainOnLong: 0.2,
	}
}

func blenderLike() Profile {
	return Profile{
		Name: "blender", Seed: 0xb1e3de4,
		LoadFrac: 0.27, StoreFrac: 0.11, MulFrac: 0.03, FPFrac: 0.22, FPFMAFrac: 0.4, FPVecLanes: 2,
		CodeFootprint: 112 * 1024, CodeSkew: 0.4,
		LoopBlockFrac: 0.35, InnerTrip: 8,
		BranchEntropy: 0.05, FuncLoop: 4, BranchLoadDep: 0.25,
		DataFootprint: 6 << 20, StreamFrac: 0.35, ChaseFrac: 0.08, ChaseHotBytes: 160 * 1024, ChaseHotFrac: 0.995,
		ChainBias: 0.3, ChainOnLong: 0.2,
	}
}

func cam4Like() Profile {
	return Profile{
		Name: "cam4", Seed: 0xca34,
		LoadFrac: 0.29, StoreFrac: 0.11, FPFrac: 0.27, FPFMAFrac: 0.45, FPVecLanes: 2,
		CodeFootprint: 176 * 1024, CodeSkew: 0.45, FuncBlocks: 20,
		LoopBlockFrac: 0.4, InnerTrip: 9,
		BranchEntropy: 0.03, FuncLoop: 5, BranchLoadDep: 0.15,
		DataFootprint: 24 << 20, StreamFrac: 0.65, ChaseFrac: 0.05,
		ChainBias: 0.25, ChainOnLong: 0.2,
	}
}

func imagickLike() Profile {
	return Profile{
		Name: "imagick", Seed: 0x13a61c,
		LoadFrac: 0.15, StoreFrac: 0.06, MulFrac: 0.10, FPFrac: 0.10,
		FPFMAFrac: 0.4, FPVecLanes: 1,
		// Serial accumulator chains threaded through multi-cycle producers:
		// single-cycle uops strung behind muls/FP ops (Figure 3e).
		SerialChain: 0.35, SerialChainALU: 0.55, ChainOnLong: 0.05,
		CodeFootprint: 6 * 1024, CodeSkew: 0.7, FuncLoop: 8,
		LoopBlockFrac: 0.6, InnerTrip: 24,
		BranchEntropy: 0.02, BranchLoadDep: 0.05,
		DataFootprint: 256 * 1024, StreamFrac: 0, ChaseFrac: 0,
		LocalBytes: 8 * 1024,
		ChainBias:  0.2,
	}
}

func nabLike() Profile {
	return Profile{
		Name: "nab", Seed: 0x4ab,
		LoadFrac: 0.26, StoreFrac: 0.09, MulFrac: 0.03, FPFrac: 0.32, FPFMAFrac: 0.5, FPVecLanes: 2,
		CodeFootprint: 20 * 1024, CodeSkew: 0.65,
		LoopBlockFrac: 0.55, InnerTrip: 16,
		BranchEntropy: 0.03, BranchLoadDep: 0.1,
		DataFootprint: 4 << 20, StreamFrac: 0.5, ChaseFrac: 0.05,
		ChainBias: 0.3, ChainOnLong: 0.35,
	}
}

func fotonik3dLike() Profile {
	return Profile{
		Name: "fotonik3d", Seed: 0xf070,
		LoadFrac: 0.33, StoreFrac: 0.12, FPFrac: 0.28, FPFMAFrac: 0.5, FPVecLanes: 2,
		CodeFootprint: 12 * 1024, CodeSkew: 0.75,
		LoopBlockFrac: 0.65, InnerTrip: 28,
		BranchEntropy: 0.01, BranchLoadDep: 0.05,
		DataFootprint: 48 << 20, StreamFrac: 0.92, ChaseFrac: 0.0,
		ChainBias: 0.2, ChainOnLong: 0.2,
	}
}

func romsLike() Profile {
	return Profile{
		Name: "roms", Seed: 0x303a5,
		LoadFrac: 0.31, StoreFrac: 0.13, FPFrac: 0.27, FPFMAFrac: 0.5, FPVecLanes: 2,
		CodeFootprint: 36 * 1024, CodeSkew: 0.5,
		LoopBlockFrac: 0.55, InnerTrip: 20,
		BranchEntropy: 0.02, BranchLoadDep: 0.05,
		DataFootprint: 40 << 20, StreamFrac: 0.85, ChaseFrac: 0.0,
		ChainBias: 0.25, ChainOnLong: 0.2,
	}
}
