package experiments

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling OS thread has used so far, to
// the nanosecond. The caller must hold the thread (runtime.LockOSThread)
// across the interval it measures. Time other processes take from the host
// does not count. (getrusage(RUSAGE_THREAD) reports the same clock, but in
// steps of tens of microseconds: too coarse for millisecond intervals.)
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("experiments: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
