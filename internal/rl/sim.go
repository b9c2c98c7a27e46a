package rl

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"disarcloud/internal/elastic"
	"disarcloud/internal/finmath"
)

// SimConfig fixes the simulated control plane: elastic.Queue's recursion at
// this tick, mean runtime and truncation, plus FIFO per-job latency
// tracking the MDP abstracts away.
type SimConfig struct {
	TickMS         int
	MeanRuntimeMS  float64
	MaxQueue       int
	QueueBound     int
	InitialWorkers int
	// Seed drives the completion draws; the arrival counts come in from
	// the caller already drawn.
	Seed uint64
}

// SimResult is one deterministic replay's scorecard.
type SimResult struct {
	// Ticks includes the drain tail after the trace ends.
	Ticks int
	// Jobs completed; Dropped counts arrivals refused at MaxQueue;
	// Unfinished counts jobs still queued when the drain cap hit.
	Jobs       int
	Dropped    int
	Unfinished int
	// Latency quantiles over completed jobs, in ticks from arrival to
	// completion (a job completing the tick it arrives scores 1).
	P50LatencyTicks float64
	P95LatencyTicks float64
	MaxLatencyTicks int
	// WorkerSeconds integrates the pool target over time; Resizes counts
	// target changes; ViolationTicks counts ticks with the jobs-in-system
	// count at or past QueueBound.
	WorkerSeconds  float64
	Resizes        int
	ViolationTicks int
	PeakWorkers    int
	MeanQueue      float64
}

// drainFactor caps the post-trace drain at this multiple of the trace
// length (plus a fixed floor), so a policy that starves the pool cannot
// hang the simulation; whatever remains queued is reported as Unfinished.
const drainFactor = 4

// Simulate replays one trace (per-tick arrival counts, the deterministic
// rate profile the policy observes, optionally a planner target) through
// the backlog dynamics under the given policy. Everything is deterministic
// in (tr, cfg.Seed, policy), which is what makes the policy comparison
// experiment bit-reproducible.
func Simulate(tr elastic.Trace, pol elastic.Policy, cfg SimConfig) (SimResult, error) {
	if len(tr.Counts) == 0 || len(tr.Counts) != len(tr.Rates) || (tr.Plans != nil && len(tr.Plans) != len(tr.Counts)) {
		return SimResult{}, fmt.Errorf("rl: trace has %d counts, %d rates and %d plans", len(tr.Counts), len(tr.Rates), len(tr.Plans))
	}
	if cfg.TickMS < 1 || !(cfg.MeanRuntimeMS > 0) || math.IsInf(cfg.MeanRuntimeMS, 0) {
		return SimResult{}, errors.New("rl: simulation needs a positive tick and mean runtime")
	}
	if cfg.MaxQueue < 1 || cfg.QueueBound < 1 || cfg.QueueBound > cfg.MaxQueue {
		return SimResult{}, errors.New("rl: simulation needs 1 <= QueueBound <= MaxQueue")
	}
	if cfg.InitialWorkers < 1 {
		return SimResult{}, errors.New("rl: simulation needs at least one initial worker")
	}
	tickSec := float64(cfg.TickMS) / 1000
	queue := elastic.NewQueue(tickSec, cfg.MeanRuntimeMS/1000, cfg.MaxQueue)
	rng := finmath.NewRNG(cfg.Seed ^ 0x51a7e51a)

	// FIFO of arrival ticks: completions pop the oldest jobs, which is how
	// the scheduler's queue serves and what p95 latency means here.
	fifo := make([]int, 0, cfg.MaxQueue)
	var latencies []int
	var res SimResult
	queueSum := 0
	res.Ticks = queue.Replay(tr, cfg.InitialWorkers, drainFactor*len(tr.Counts)+1000, rng, elastic.Stepper(pol),
		func(t elastic.Tick) bool {
			if t.Target != t.Obs.Workers {
				res.Resizes++
			}
			for _, arrived := range fifo[:t.Completed] {
				latencies = append(latencies, t.I-arrived+1)
			}
			fifo = fifo[t.Completed:]
			admitted := t.Jobs - len(fifo)
			res.Dropped += t.Arrivals - admitted
			for a := 0; a < admitted; a++ {
				fifo = append(fifo, t.I)
			}
			if t.Target > res.PeakWorkers {
				res.PeakWorkers = t.Target
			}
			res.WorkerSeconds += float64(t.Target) * tickSec
			queueSum += t.Jobs
			if t.Jobs >= cfg.QueueBound {
				res.ViolationTicks++
			}
			return true
		})
	res.Jobs = len(latencies)
	res.Unfinished = len(fifo)
	if res.Ticks > 0 {
		res.MeanQueue = float64(queueSum) / float64(res.Ticks)
	}
	if len(latencies) > 0 {
		sort.Ints(latencies)
		res.P50LatencyTicks = quantile(latencies, 0.50)
		res.P95LatencyTicks = quantile(latencies, 0.95)
		res.MaxLatencyTicks = latencies[len(latencies)-1]
	}
	return res, nil
}

// quantile reads the q-th quantile of sorted ints with linear
// interpolation between order statistics (the numpy/R-7 convention):
// latencies are whole ticks, and interpolating is what lets a p95 resolve
// "more of the mass sits below 5 ticks" instead of collapsing every policy
// to the same integer. Deterministic in its inputs.
func quantile(sorted []int, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[hi]-sorted[lo])
}
