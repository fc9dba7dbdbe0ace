package resultcache

import (
	"reflect"
	"testing"

	"perfstacks/internal/config"
	"perfstacks/internal/sim"
	"perfstacks/internal/workload"
)

func benchSetup(t *testing.T) (config.Machine, workload.Profile, sim.Options) {
	t.Helper()
	m, err := config.ByName("BDW")
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := workload.SPECProfile("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	opts := sim.Default()
	opts.WarmupUops = 1000
	return m, prof, opts
}

func TestSimKeyStableAndSensitive(t *testing.T) {
	m, prof, opts := benchSetup(t)
	k1, err := SimKey(m, prof, 5000, opts)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := SimKey(m, prof, 5000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("SimKey not deterministic")
	}
	if k3, _ := SimKey(m, prof, 5001, opts); k3 == k1 {
		t.Fatal("uop budget not part of the key")
	}
	ideal := m.Apply(config.Idealize{PerfectBpred: true})
	if k4, _ := SimKey(ideal, prof, 5000, opts); k4 == k1 {
		t.Fatal("idealization not part of the key")
	}
	o2 := opts
	o2.FLOPS = true
	if k5, _ := SimKey(m, prof, 5000, o2); k5 == k1 {
		t.Fatal("options not part of the key")
	}
}

func TestRunSPECCacheRoundTrip(t *testing.T) {
	m, prof, opts := benchSetup(t)
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New(NewMemory(1<<20), disk)

	cold, hit := RunSPEC(c, m, prof, 5000, opts)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if hit {
		t.Fatal("first run reported a cache hit")
	}
	warm, hit := RunSPEC(c, m, prof, 5000, opts)
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if !hit {
		t.Fatal("second identical run missed the cache")
	}
	// The decoded result is the measurement, not an approximation of it.
	if !reflect.DeepEqual(cold.Stacks, warm.Stacks) || cold.Stats != warm.Stats {
		t.Fatal("cached result differs from the simulated one")
	}

	// A nil cache still simulates correctly.
	bare, hit := RunSPEC(nil, m, prof, 5000, opts)
	if bare.Err != nil || hit {
		t.Fatalf("nil-cache run: err=%v hit=%v", bare.Err, hit)
	}
	if !reflect.DeepEqual(bare.Stacks, cold.Stacks) {
		t.Fatal("nil-cache run diverged")
	}
}

// TestSimKeyGolden pins the content address of a few generator-driven
// simulations to checked-in hex keys. A cache directory written by an
// earlier build is only reusable while these stay put: any change to
// canonical machine bytes, canonical options, the workload identity or the
// schema version shows up here first. Update the table only together with
// sim.SchemaVersion.
func TestSimKeyGolden(t *testing.T) {
	prof, ok := workload.SPECProfile("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	opts := sim.Default()
	opts.WarmupUops = 1000
	flops := opts
	flops.FLOPS = true
	cases := []struct {
		name string
		m    config.Machine
		opts sim.Options
		want string
	}{
		{"BDW", config.BDW(), opts,
			"97c7b67aea8c293fdd80969dbeaca09d3147976e5fa1f3da0d4ed95ff0a21193"},
		{"KNL", config.KNL(), opts,
			"e63583c8b5b2e5fb8cfd898998f187c31fb08e6a59e6cd15525afc9e74314cd2"},
		{"SKX", config.SKX(), opts,
			"90b904a961f9bd91aa17f71671ed8fcb7441e98b8d2caefd80c50cb255813741"},
		{"BDW-perfect-bpred", config.BDW().Apply(config.Idealize{PerfectBpred: true}), opts,
			"a97ecd2c0effbd423a0d0dcf1704ea66a860fd7f72641e151085c5a46ba23409"},
		{"BDW-flops", config.BDW(), flops,
			"221f56bac545a2256bc9fd69e88cd256cfab429f80de0d070abaae9f9e9617ae"},
	}
	for _, c := range cases {
		k, err := SimKey(c.m, prof, 5000, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := k.String(); got != c.want {
			t.Errorf("%s/mcf: key %s, want %s", c.name, got, c.want)
		}
	}
}
