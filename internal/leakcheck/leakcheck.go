// Package leakcheck is the tests' goroutine-leak check: record how many
// goroutines run before a scenario, and after it wait until no more do.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// timeout bounds the wait for goroutines that are shutting down.
const timeout = 20 * time.Second

// Goroutines records the running goroutine count and returns the check that
// polls until the count is back at or below it, failing t after timeout. An
// exited goroutine leaves the count a moment after its last statement, so
// the check polls instead of sleeping a guessed interval.
//
//	noLeak := leakcheck.Goroutines(t)
//	... start and stop the goroutines under test ...
//	noLeak()
func Goroutines(t testing.TB) func() {
	t.Helper()
	baseline := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines still running after %v, %d before", runtime.NumGoroutine(), timeout, baseline)
			}
			runtime.Gosched()
		}
	}
}
