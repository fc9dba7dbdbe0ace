package resultcache

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"perfstacks/internal/export"
	"perfstacks/internal/runner"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// TestRerunResumesFromCache pins the resume contract of cmd/sweep and
// cmd/experiments: an interrupted run leaves its completed results in the
// disk cache and never a canceled partial one, and rerunning every job over
// the same directory simulates only what is missing and yields the bytes an
// uninterrupted run would.
func TestRerunResumesFromCache(t *testing.T) {
	m, _, base := benchSetup(t)
	const uops = 40_000
	var profs []workload.Profile
	for _, name := range []string{"mcf", "leela", "deepsjeng", "cactuBSSN"} {
		p, ok := workload.SPECProfile(name)
		if !ok {
			t.Fatalf("profile %s missing", name)
		}
		profs = append(profs, p)
	}
	n := len(profs)
	dir := t.TempDir()
	openCache := func() *Cache {
		disk, err := NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		return New(NewMemory(1<<20), disk)
	}
	run := func(ctx context.Context, c *Cache, onStart func(i int)) ([]sim.Result, []bool, []runner.JobError) {
		res := make([]sim.Result, n)
		hits := make([]bool, n)
		failed := runner.Run(ctx, 1, n, func(jctx context.Context, i int) error {
			onStart(i)
			opts := base
			opts.Context = jctx
			res[i], hits[i] = RunSPEC(c, m, profs[i], uops, opts)
			return res[i].Err
		})
		return res, hits, failed
	}

	// First pass: canceled as the third job starts, after two completed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := openCache()
	_, _, failed := run(ctx, first, func(i int) {
		if i == 2 {
			cancel()
		}
	})
	if len(failed) != 1 || failed[0].Index != 2 || !errors.Is(failed[0].Err, sim.ErrCanceled) {
		t.Fatalf("first pass failures = %v, want only job 2, canceled", failed)
	}
	if s := first.Stats.Snapshot(); s.Stores != 2 {
		t.Fatalf("first pass stored %d results, want the 2 completed ones", s.Stores)
	}
	disk, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range profs {
		k, err := SimKey(m, p, uops, base)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := disk.Get(k); ok != (i < 2) {
			t.Fatalf("job %d (%s) on disk = %v after the interrupted pass, want %v", i, p.Name, ok, i < 2)
		}
	}

	// Second pass: every job again, on a fresh cache over the same directory.
	res, hits, failed := run(context.Background(), openCache(), func(int) {})
	if len(failed) != 0 {
		t.Fatalf("rerun failures: %v", failed)
	}
	for i := range profs {
		if hits[i] != (i < 2) {
			t.Fatalf("rerun job %d hit = %v, want exactly the 2 completed jobs served from disk", i, hits[i])
		}
	}
	for i, p := range profs {
		want := sim.Run(m, trace.NewLimit(workload.NewGenerator(p), uops), base)
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		wantBytes, err := export.EncodeResult(&want, p.Name)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := export.EncodeResult(&res[i], p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("job %d (%s): resumed result differs from an uncached run", i, p.Name)
		}
	}
}
