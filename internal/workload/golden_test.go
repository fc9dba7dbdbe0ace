package workload

import (
	"bytes"
	"io"
	"testing"

	"perfstacks/internal/trace"
)

// TestGeneratorStreamGolden pins the generator's output byte for byte: the
// trace-file digest of mcf's first 10,000 uops. Cache keys name a generated
// trace by (profile, length), so any change to the PRNG or the generator that
// alters the stream would silently serve stale cached results.
func TestGeneratorStreamGolden(t *testing.T) {
	const want = "526804c9be70b49c6f40444a0c91bde774cfe826b9690aa652a977843ad1c0ae"
	p, _ := SPECProfile("mcf")
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range take(NewGenerator(p), 10_000) {
		if err := w.Write(&u); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	d := trace.NewDigestReader(&buf)
	if _, err := io.Copy(io.Discard, d); err != nil {
		t.Fatal(err)
	}
	if got := d.Sum().String(); got != want {
		t.Fatalf("mcf 10,000-uop digest = %s, want %s", got, want)
	}
}
