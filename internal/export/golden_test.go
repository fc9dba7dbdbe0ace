package export

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// TestResultEncodingGolden pins the wire encoding of complete simulation
// results — every accountant on (CPI, FLOPS, per-level memory, structural,
// fetch) — for BDW/KNL/SKX × mcf/lbm/cactuBSSN. The payload is what the
// result cache stores and simd serves, so it must stay byte-identical
// across simulator refactors that claim not to change measurements.
//
// The digests were produced by the simulator before the issue stage's
// readiness memos existed and are never regenerated to make a change pass.
func TestResultEncodingGolden(t *testing.T) {
	want := map[string]string{
		"mcf/BDW":       "9acc3c5cd9ffd8666b3ffdd677a67f5c7c253cdaaf7dd311cdd5b4ad8ac2340c",
		"lbm/BDW":       "45469bcd2551622a91ab28e7bb1d9d3aee5cc9e87ae3016318be3de658c45af3",
		"cactuBSSN/BDW": "8179f607947deb58f9148d20cb11ec283b1662c11de110e91ce0bd79a53b3581",
		"mcf/KNL":       "416e913ad9812a6a3b7b7e8d9a517dc05584ebc699aea3bbb0b910a3db7427aa",
		"lbm/KNL":       "6c9b8644ef6268c2ac5ae3d3ac91539d67dd56b905966460bfde8a37975ac1a0",
		"cactuBSSN/KNL": "248df444ea91ab91cf491323caaa6da2f58841ed9ab2ea241e69e3fff1a94f05",
		"mcf/SKX":       "876311598b793f9f3c8830046676e71d922c7bbd36691ea413d1c65e880f7bbe",
		"lbm/SKX":       "a69ec8bd7ff7d2216ec91ed63cf77ef91e9be662184933f9a05d687474193dc9",
		"cactuBSSN/SKX": "c87b834985aea3508cd020a9ba64b835e8dc9c319d1bfba86b63a51878c6837c",
	}
	opts := sim.Options{CPI: true, FLOPS: true, MemDepth: true, Structural: true, Fetch: true,
		WarmupUops: 5_000}
	for _, m := range []config.Machine{config.BDW(), config.KNL(), config.SKX()} {
		for _, name := range []string{"mcf", "lbm", "cactuBSSN"} {
			prof, ok := workload.SPECProfile(name)
			if !ok {
				t.Fatalf("missing %s profile", name)
			}
			res := sim.Run(m, trace.NewLimit(workload.NewGenerator(prof), 25_000), opts)
			payload, err := EncodeResult(&res, name)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(payload)
			key := name + "/" + m.Name
			if got := hex.EncodeToString(sum[:]); got != want[key] {
				t.Errorf("%s: result encoding digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// TestWrongPathEncodingGolden pins complete results under synthesized
// wrong-path execution for all three wrong-path accounting schemes, on the
// two branchiest profiles (deepsjeng, and exchange2's well-predicted ALU
// work) × BDW/SKX. The speculative scheme's per-uop buffers see squashes,
// orphaned wrong-path attribution targets and their end-of-run flush.
//
// The digests were produced by the simulator before the speculative
// accountant kept orphaned entries in a side list, and are never
// regenerated to make a change pass.
func TestWrongPathEncodingGolden(t *testing.T) {
	want := map[string]string{
		"deepsjeng/BDW/oracle":      "f46b7c7c80dc665c995c391a7caa29521d59ff48471d9902468366dacad16195",
		"deepsjeng/BDW/simple":      "874faa9d10cc7882d43d24351580fbc9ba5a250bf93e30d383d77ce0b204def2",
		"deepsjeng/BDW/speculative": "e868bf266ab8f7fddf7fd9ddb7c5ef63517b6f4fd3c4b71b7ee8617f5934c47b",
		"exchange2/BDW/oracle":      "ac0af20ab800a84f3b1e21dd2f9c297185822bfa43f1cde1cfc910480702f2f2",
		"exchange2/BDW/simple":      "6b21825943a7f17e025ce33e1a9429eb6d11ea10ce98511a7941c895ff3a16b4",
		"exchange2/BDW/speculative": "d2d7c507d56309089161a1390df55ec97d1d3939c6f2ef411caef9175a650907",
		"deepsjeng/SKX/oracle":      "6a95e848bec256690bd66c8bba911a2db00d222914a47866169167e1431497ab",
		"deepsjeng/SKX/simple":      "d50a3f0b7559e8ceef953f5147655cd23c0a6a7467bf81158804ff81f0b6cd23",
		"deepsjeng/SKX/speculative": "a433510a5c91608559e1843bdc59bb5e3c15f5fcc3eb20d39edbe2cdbaafa745",
		"exchange2/SKX/oracle":      "1ada9ca29e442d3fca4d5024c7f2eb7f60a0f4644da33fb5e2ecae0dbf1053ae",
		"exchange2/SKX/simple":      "71988ee97acbb3070194cd1feba7e67716a5c3fe92a67c3f7ef927fef2f72684",
		"exchange2/SKX/speculative": "fc0f53ad2748ca0c1a165eb2c71ea59980d7e233adb379cdede9ee0b8832f920",
	}
	for _, m := range []config.Machine{config.BDW(), config.SKX()} {
		for _, name := range []string{"deepsjeng", "exchange2"} {
			prof, ok := workload.SPECProfile(name)
			if !ok {
				t.Fatalf("missing %s profile", name)
			}
			for _, scheme := range []core.WrongPathScheme{core.WrongPathOracle, core.WrongPathSimple, core.WrongPathSpeculative} {
				opts := sim.Options{CPI: true, Fetch: true, Scheme: scheme,
					WrongPath: cpu.WrongPathSynth, WarmupUops: 5_000}
				res := sim.Run(m, trace.NewLimit(workload.NewGenerator(prof), 55_000), opts)
				if res.Stats.SquashedUops == 0 {
					t.Fatalf("%s/%s: no wrong-path uops squashed", name, m.Name)
				}
				payload, err := EncodeResult(&res, name)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(payload)
				key := name + "/" + m.Name + "/" + scheme.String()
				if got := hex.EncodeToString(sum[:]); got != want[key] {
					t.Errorf("%s: result encoding digest %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
