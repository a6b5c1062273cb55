//go:build linux

package experiments

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall does not name.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time the calling OS thread has used, to the
// nanosecond. ok is false when the kernel refuses the query.
func threadCPU() (d time.Duration, ok bool) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}
