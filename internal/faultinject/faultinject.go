// Package faultinject wraps trace readers and io.Readers with deterministic,
// seeded fault injection. It exists to prove the robustness contract of the
// rest of the tree: every fault a storage or decode layer can produce must
// surface as a non-nil error at the consumer (trace.ErrOf, sim.Result.Err,
// a cmd exit code) — never as a panic, and never as a silently truncated
// measurement that looks like a complete one.
//
// All injection points are chosen deterministically from a seed via a tiny
// splitmix PRNG, so a failing fault-injection test reproduces exactly from
// its logged seed. The wrappers implement trace.ErrReader, making an injected
// fault indistinguishable from a real device or decode failure to the layers
// under test.
package faultinject

import (
	"errors"
	"fmt"
	"io"

	"perfstacks/internal/splitmix"
	"perfstacks/internal/trace"
)

// ErrInjected is the sentinel wrapped by every injected fault; tests assert
// errors.Is(err, ErrInjected) to distinguish injected faults from organic
// ones.
var ErrInjected = errors.New("injected fault")

// FailingReader delivers uops from an underlying reader until a chosen
// point, then stops and reports an injected error — the trace-level model of
// a stream that dies mid-run (disk error, truncated pipe, decode fault).
type FailingReader struct {
	r     trace.Reader
	after uint64 // uops delivered before the fault fires
	seen  uint64
	err   error
	cause error
}

// FailAfter wraps r to deliver exactly n uops and then fail with cause
// (wrapped with ErrInjected). A nil cause injects a generic fault.
func FailAfter(r trace.Reader, n uint64, cause error) *FailingReader {
	if cause == nil {
		cause = errors.New("stream fault")
	}
	return &FailingReader{r: r, after: n, cause: cause}
}

// Next implements trace.Reader.
func (f *FailingReader) Next() (trace.Uop, bool) {
	if f.err != nil {
		return trace.Uop{}, false
	}
	if f.seen >= f.after {
		f.err = fmt.Errorf("%w after %d uops: %w", ErrInjected, f.seen, f.cause)
		return trace.Uop{}, false
	}
	u, ok := f.r.Next()
	if !ok {
		// Underlying stream ended first; propagate its (possibly nil) error.
		f.err = trace.ErrOf(f.r)
		return trace.Uop{}, false
	}
	f.seen++
	return u, true
}

// ReadBatch implements trace.BatchReader: the fault fires mid-batch, so a
// batch straddling the injection point returns a short count first and the
// error on the next call — exactly how a real torn stream behaves under
// batched ingestion.
func (f *FailingReader) ReadBatch(dst []trace.Uop) int {
	n := 0
	for n < len(dst) {
		u, ok := f.Next()
		if !ok {
			break
		}
		dst[n] = u
		n++
	}
	return n
}

// Err implements trace.ErrReader.
func (f *FailingReader) Err() error { return f.err }

// Delivered returns how many uops were handed out before the fault.
func (f *FailingReader) Delivered() uint64 { return f.seen }

// Faults enumerates the byte-level fault kinds Byte streams can inject.
type Faults int

const (
	// FaultShortRead makes reads return fewer bytes than asked without an
	// error, exercising the io.ReadFull paths (a correct consumer must not
	// treat a short read as EOF).
	FaultShortRead Faults = 1 << iota
	// FaultTruncate cuts the stream at a deterministic byte offset,
	// producing a torn record or torn header.
	FaultTruncate
	// FaultBitFlip flips one deterministic bit in one deterministic byte,
	// corrupting a record (or the magic header) in flight.
	FaultBitFlip
	// FaultErr makes the stream return a device error at a deterministic
	// byte offset instead of data.
	FaultErr
)

// ByteReader wraps an io.Reader with seeded byte-level faults. It is the
// storage-layer counterpart of FailingReader: feed it to trace.NewFileReader
// to prove the decode layer classifies every fault as an error.
type ByteReader struct {
	r      io.Reader
	faults Faults
	rng    splitmix.Source

	off       int64 // bytes delivered so far
	cutAt     int64 // FaultTruncate: stream ends here
	flipAt    int64 // FaultBitFlip: flip a bit in this byte
	flipMask  byte
	errAt     int64 // FaultErr: fail once this byte is reached
	shortMod  int   // FaultShortRead: cap read sizes pseudo-randomly
	injected  error
	exhausted bool
}

// NewByteReader wraps r with the requested fault kinds at seed-determined
// offsets within limit bytes (limit should be the stream's length, or an
// upper bound of interest). The same seed always yields the same offsets.
func NewByteReader(r io.Reader, faults Faults, seed uint64, limit int64) *ByteReader {
	b := &ByteReader{r: r, faults: faults, rng: splitmix.New(seed)}
	if limit < 1 {
		limit = 1
	}
	// Draw offsets in a fixed order so each fault's position depends only on
	// the seed, not on which other faults are enabled.
	b.cutAt = int64(b.rng.Next() % uint64(limit))
	b.flipAt = int64(b.rng.Next() % uint64(limit))
	b.flipMask = 1 << (b.rng.Next() % 8)
	b.errAt = int64(b.rng.Next() % uint64(limit))
	b.shortMod = 1 + b.rng.Intn(7)
	return b
}

// Read implements io.Reader, applying the enabled faults at their chosen
// offsets.
func (b *ByteReader) Read(p []byte) (int, error) {
	if b.injected != nil {
		return 0, b.injected
	}
	if b.exhausted {
		return 0, io.EOF
	}
	if b.faults&FaultErr != 0 && b.off >= b.errAt {
		b.injected = fmt.Errorf("%w: device error at byte %d", ErrInjected, b.off)
		return 0, b.injected
	}
	n := len(p)
	if b.faults&FaultShortRead != 0 && n > 1 {
		// Deterministically shrink the read; never to zero (a zero-byte
		// read with a nil error is legal but livelocks naive loops).
		n = 1 + b.rng.Intn(min(n, 64))
	}
	if b.faults&FaultTruncate != 0 && b.off+int64(n) > b.cutAt {
		n = int(b.cutAt - b.off)
		if n <= 0 {
			b.exhausted = true
			return 0, io.EOF
		}
	}
	if b.faults&FaultErr != 0 && b.off+int64(n) > b.errAt {
		n = int(b.errAt - b.off) // deliver cleanly up to the error point
	}
	got, err := b.r.Read(p[:n])
	if b.faults&FaultBitFlip != 0 && b.flipAt >= b.off && b.flipAt < b.off+int64(got) {
		p[b.flipAt-b.off] ^= b.flipMask
	}
	b.off += int64(got)
	if err == io.EOF {
		b.exhausted = true
	}
	return got, err
}

// Injected returns the byte-level error this wrapper produced, if any.
func (b *ByteReader) Injected() error { return b.injected }

// CutAt returns the truncation offset chosen for the seed (for test logs).
func (b *ByteReader) CutAt() int64 { return b.cutAt }

// DelayedErrReader returns clean data for its whole underlying stream and
// only then fails — the "error after the last byte" shape that catches
// consumers who stop checking errors once they have seen enough data.
type DelayedErrReader struct {
	r    io.Reader
	err  error
	done bool
}

// NewDelayedErr wraps r so EOF is replaced by an injected error.
func NewDelayedErr(r io.Reader) *DelayedErrReader {
	return &DelayedErrReader{r: r, err: fmt.Errorf("%w: deferred device error at end of stream", ErrInjected)}
}

// Read implements io.Reader.
func (d *DelayedErrReader) Read(p []byte) (int, error) {
	if d.done {
		return 0, d.err
	}
	n, err := d.r.Read(p)
	if err == io.EOF {
		d.done = true
		if n > 0 {
			return n, nil
		}
		return 0, d.err
	}
	return n, err
}
