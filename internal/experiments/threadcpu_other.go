//go:build !linux

package experiments

import "time"

var clockStart = time.Now()

// threadCPU falls back to the monotonic wall clock where per-thread CPU
// time is not available.
func threadCPU() time.Duration { return time.Since(clockStart) }
