package core

import "runtime"

// HoldDeploys takes the deploy mutex, so that every section started from
// here on queues behind it. The returned release waits until n sections are
// counted in flight and lets them go — as one convoy when n is within the
// cap. For the benchmarks of package core_test, which cannot reach d.mu.
func (d *Deployer) HoldDeploys() (release func(n int)) {
	d.mu.Lock()
	return func(n int) {
		for d.inFlight.Load() != int32(n) {
			runtime.Gosched()
		}
		d.mu.Unlock()
	}
}
