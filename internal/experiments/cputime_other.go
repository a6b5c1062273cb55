//go:build !linux

package experiments

import "time"

// threadCPU reports that per-thread CPU time is unavailable; callers fall
// back to wall time.
func threadCPU() (d time.Duration, ok bool) { return 0, false }
