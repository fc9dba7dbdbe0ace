// Command perfbench is the repository benchmark. It runs one seeded
// workload against the simulator's public Go APIs and the simd HTTP
// surface, checks every output it times, and prints the workload's
// metrics: end-to-end metrics with --trace 0, per-layer metrics from a
// separate traced run with --trace 1. BENCHMARK.json at the repository
// root names the workloads and metrics; README.md here documents them.
//
//	bash perfbench/run.sh --workload sim-suite --seed 1 --seconds 45 --trace 0
//
// It must run from the repository root, where it reads BENCHMARK.json and
// keeps its scratch files under .bench_out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// defaultSeed is the seed whose sim-suite result digest is pinned.
const defaultSeed = 1

// metric is one reported figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec is the part of BENCHMARK.json the program checks itself against.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// bench carries one run's settings and collects its figures.
type bench struct {
	seed   uint64
	window time.Duration
	traced bool
	dir    string // scratch directory inside the checkout

	attempted, failed int
	errs              []string
	metrics           map[string]metric
	units             map[string]string // unit per reportable metric
}

// op counts one checked operation; a non-nil err counts it as failed.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < 10 {
			b.errs = append(b.errs, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// set records a metric of this run's kind (end-to-end or per-layer) and
// prints it with its unit and sample count. Figures of the other kind are
// ignored, so workload code can compute both unconditionally.
func (b *bench) set(name string, v float64, n int, note string) {
	unit, ok := b.units[name]
	if !ok {
		return
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("  %-32s %14.6g %-8s", name, v, unit)
	if n > 0 {
		line += fmt.Sprintf(" n=%d", n)
	}
	if note != "" {
		line += "  " + note
	}
	fmt.Println(line)
}

// note prints an informational line that is not a tracked metric.
func (b *bench) note(format string, args ...any) {
	fmt.Printf("  "+format+"\n", args...)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"sim-suite": runSimSuite,
	"svc-mixed": runSvcMixed,
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 45, "measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	drive, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	kind := sp.EndToEnd
	if traced {
		kind = sp.PerLayer
	}
	b := &bench{seed: seed, window: time.Duration(seconds) * time.Second, traced: traced,
		metrics: map[string]metric{}, units: map[string]string{}}
	for _, m := range kind {
		b.units[m.Name] = m.Unit
	}
	b.dir, err = filepath.Abs(filepath.Join(".bench_out", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v  host: nproc=%d GOMAXPROCS=%d %s\n",
		name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := drive(b); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	b.set("max_rss_mb", maxRSSMiB(), 0, "peak resident memory of this process")
	b.set("runtime.gc_cpu_share", gcCPUShare(), 0, "GC CPU ÷ total CPU, whole process")

	var missing []string
	for n := range b.units {
		if _, ok := b.metrics[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	if b.attempted == 0 {
		return errors.New("no operation attempted")
	}
	fmt.Printf("  fail_ratio %.6g (%d failed of %d attempted)\n", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, b.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setupMedian runs mk k times and keeps the last state, tearing the others
// down; it returns the median set-up time in seconds. Repeating set-up
// gives setup_s a median of its own instead of one cold reading.
func setupMedian[T any](k int, mk func() (T, error), teardown func(T)) (T, float64, error) {
	var st T
	times := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		if i > 0 {
			teardown(st)
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if st, err = mk(); err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, median(times), nil
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fmtF formats a float for notes.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
