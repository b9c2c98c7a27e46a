//go:build unix

package main

import (
	"math"
	"sync"
	"time"
)

// Machine-speed calibration.
//
// The boxes this benchmark runs on are small shared VMs whose effective CPU
// speed drifts by tens of percent over tens of seconds: the same op, same
// seed, same binary was measured between 0.74 s and 1.07 s within one
// minute, and ten repeats of one run spread (interquartile range over
// median) by 0.19-0.29 on every timing. No statistic taken inside a
// 20-second run removes a drift that is slower than the run.
//
// So every round also times a fixed arithmetic kernel — nproc goroutines of
// exp/log/sqrt over an xorshift stream, nothing from this repository — in
// the gaps between its ops, while the daemon is idle, and the round's
// timings are reported at REFERENCE machine speed: multiplied by
// referenceCalibMS / (the round's mean kernel time). Fast fluctuations
// average out over a round's samples; the slow drift, which moves kernel and
// workload alike, cancels. Both sides of a parent/change comparison are
// scaled by the same kernel, which a change that claims a gain may not edit.

// calibIterations is the kernel length per goroutine, about 150 ms on the
// reference box.
const calibIterations = 5_600_000

// referenceCalibMS is the kernel's time on the reference box (2-vCPU Xeon
// 2.1 GHz VM) at its typical speed. Reported times are what the reference
// box at that speed would have shown; bench.machine_speed_x says how the
// measuring box compared.
const referenceCalibMS = 150.0

var calibSink float64 // keeps the kernel's result observable

func calibKernel(n int) float64 {
	x := uint64(88172645463325252)
	s := 0.0
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := float64(x>>11)/(1<<53) + 1e-9
		s += math.Exp(-u) + math.Log(u+1) + math.Sqrt(u)
	}
	return s
}

// calibrate runs the kernel on nproc goroutines and returns the wall time in
// milliseconds.
func calibrate(nproc int) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := calibKernel(calibIterations)
			mu.Lock()
			calibSink += s
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ms(time.Since(start).Nanoseconds())
}
