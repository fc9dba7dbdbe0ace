package export

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"perfstacks/internal/config"
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
