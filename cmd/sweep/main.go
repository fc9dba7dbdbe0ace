// Command sweep runs every SPEC-like workload profile on one or more
// machine configurations and emits the multi-stage CPI stacks as a single
// CSV — the bulk-characterization workflow, ready for spreadsheets or
// plotting scripts.
//
// The sweep is fault tolerant: SIGINT/SIGTERM cancel the worker pool
// cooperatively, and with -cache every completed run is stored in the
// content-addressed result cache the moment it finishes, so rerunning an
// interrupted sweep with the same -cache DIR simulates only the missing
// configurations and emits the same CSV an uninterrupted run would. A run
// whose trace faults or that panics is reported and makes the sweep exit
// non-zero without taking down the other runs.
//
// Usage:
//
//	sweep -machines BDW,KNL -uops 300000 -warmup 200000 > stacks.csv
//	sweep -benchjson bench.json > stacks.csv   # also write run stats as JSON
//	sweep -cache simcache > stacks.csv         # rerun to resume an interrupted sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"perfstacks/internal/config"
	"perfstacks/internal/export"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/runner"
	"perfstacks/internal/sensitivity"
	"perfstacks/internal/sim"
	"perfstacks/internal/workload"
)

func main() {
	machines := flag.String("machines", "BDW,KNL", "comma-separated machine list")
	uops := flag.Uint64("uops", 300_000, "measured uops per run")
	warm := flag.Uint64("warmup", 200_000, "warm-up uops per run")
	par := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations")
	benchJSON := flag.String("benchjson", "", "write per-run wall-time/throughput stats as JSON to this file (- for stderr)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (shared with simd and experiments)")
	idealize := flag.Bool("idealize", false, "also sweep each machine's four idealized endpoints (perfect bpred/icache/dcache, single-cycle ALU)")
	flag.Parse()

	var cache *resultcache.Cache
	if *cacheDir != "" {
		disk, err := resultcache.NewDisk(*cacheDir)
		if err != nil {
			fatal(err)
		}
		cache = resultcache.New(resultcache.NewMemory(64<<20), disk)
	}

	var ms []config.Machine
	for _, name := range strings.Split(*machines, ",") {
		m, err := config.ByName(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		ms = append(ms, m)
	}

	profs := workload.SPECProfiles()
	type job struct {
		m     config.Machine
		label string // machine column: the name plus any idealization suffix
		prof  workload.Profile
	}
	var jobs []job
	for _, m := range ms {
		// The machine's Name stays untouched across variants so every job's
		// cache key derives from the canonical (possibly idealized) machine
		// encoding — the same keys sensitivity's endpoint cells use.
		variants := []job{{m: m, label: m.Name}}
		if *idealize {
			for _, comp := range sensitivity.IdealComponents() {
				id := sensitivity.IdealizeFor(comp)
				variants = append(variants, job{m: m.Apply(id), label: m.Name + "+" + id.String()})
			}
		}
		for _, v := range variants {
			for _, p := range profs {
				jobs = append(jobs, job{v.m, v.label, p})
			}
		}
	}

	// SIGINT/SIGTERM cancel the pool: running simulations stop at their next
	// cancellation poll, unstarted jobs are skipped, and with -cache every
	// completed run is already on disk for the rerun.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rows := make([]export.LabeledStacks, len(jobs))
	completed := make([]bool, len(jobs))
	report := runner.RunTimed(ctx, max(1, *par), len(jobs),
		func(jctx context.Context, i int) (string, uint64, error) {
			j := jobs[i]
			label := j.prof.Name + "/" + j.label
			opts := sim.Default()
			opts.WarmupUops = *warm
			opts.Context = jctx
			res, _ := resultcache.RunSPEC(cache, j.m, j.prof, *warm+*uops, opts)
			if res.Err != nil {
				return label, 0, res.Err
			}
			rows[i] = export.LabeledStacks{
				Workload: j.prof.Name,
				Machine:  j.label,
				Stacks:   res.Stacks,
			}
			completed[i] = true
			return label, *warm + *uops, nil
		})

	if *benchJSON != "" {
		out := os.Stderr
		if *benchJSON != "-" {
			f, err := os.Create(*benchJSON)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := report.WriteJSON(out); err != nil {
			fatal(err)
		}
	}

	var missing int
	for _, done := range completed {
		if !done {
			missing++
		}
	}
	switch {
	case ctx.Err() != nil:
		// Interrupted: canceled runs show up as failures too, but the story
		// to tell is the resume path, not the per-run cancellation errors.
		hint := "; rerun with -cache DIR to keep completed runs across interruptions"
		if cache != nil {
			hint = fmt.Sprintf("; completed runs are cached, rerun with -cache %s to simulate only the missing ones", *cacheDir)
		}
		fmt.Fprintf(os.Stderr, "sweep: interrupted with %d of %d runs missing; no CSV emitted%s\n",
			missing, len(jobs), hint)
		os.Exit(1)
	case report.Failed():
		for i := range report.Errors {
			fmt.Fprintln(os.Stderr, "sweep:", report.Errors[i].Error())
		}
		fmt.Fprintf(os.Stderr, "sweep: %d of %d runs failed; no CSV emitted (partial stacks are not a measurement)\n",
			len(report.Errors), len(jobs))
		os.Exit(1)
	case missing > 0:
		fmt.Fprintf(os.Stderr, "sweep: %d of %d runs missing; no CSV emitted\n", missing, len(jobs))
		os.Exit(1)
	}

	// Every run completed: emit the merged CSV (cached and fresh rows alike).
	if err := export.StacksToCSV(os.Stdout, rows); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d runs (%d workloads x %d machine variants) in %.1fs, %.0f uops/s aggregate\n",
		len(jobs), len(profs), len(jobs)/len(profs), report.WallSeconds, report.UopsPerSec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
