package chaos

import (
	"runtime"
	"testing"
	"time"
)

// checkGoroutines records the goroutine count now and returns the check
// to defer across a harness run: once the run has returned, the count
// must come back to that baseline within a few seconds, or the test
// fails with every goroutine's stack.
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("%d goroutines leaked past the run (%d before, %d after):\n%s", n-before, before, n, buf)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
