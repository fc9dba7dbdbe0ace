package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestQuickRenderGolden pins the rendered text of every experiment that
// `cmd/experiments -quick` prints in a few seconds: a per-experiment SHA-256
// of Render() at QuickSpec sizing. EXPERIMENTS.md promises bit-for-bit
// reproducible tables and figures; this test holds the simulator to it
// across refactors. figure2 and figure4 (the slow full-suite sweeps) and the
// wall-clock overhead experiment are left out.
//
// The digests were produced by the simulator before the issue stage's
// readiness memos existed and are never regenerated to make a change pass.
func TestQuickRenderGolden(t *testing.T) {
	spec := QuickSpec()
	cases := []struct {
		name   string
		render func() string
		want   string
	}{
		{"tableI", func() string { return TableI(spec).Render() }, "15c1b1e31a95f209343dbd977043f5d85acd34cdf46857b9214499d72c73cf01"},
		{"figure1", func() string { return Figure1(spec).Render() }, "7d3c827956b9ac3f33d74f2c5245429326657cfd9c4326798bbf05dd1d9c1254"},
		{"figure3", func() string { return Figure3(spec).Render() }, "bf5bed442201c9a146333d6bef2135b7eb73f2349548c57c163745b6f0356655"},
		{"figure5", func() string { return Figure5(spec).Render() }, "1d88c6202ca00ff805a799a79cd81c683854326c282af4a8257e428bb2e7d6b8"},
		{"wrongpath", func() string { return WrongPath(spec).Render() }, "5365b93edf732b985e36b049ddd5d7e07540b9f8b76af4da7539161f71bf751a"},
		{"ablation", func() string { return Ablation(spec).Render() }, "3b80a73568e517eb19adc3541610d6a7fdffdb073ad494964679dc66c5fc6a99"},
	}
	for _, tc := range cases {
		sum := sha256.Sum256([]byte(tc.render()))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: rendered output digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
