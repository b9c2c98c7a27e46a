package elastic

import "disarcloud/internal/finmath"

// Queue is the bounded backlog every offline analysis steps the policies
// against — the trainer, the simulator, the model checker's chain and its
// empirical replays all share this one recursion. Per control tick: the
// policy observes the jobs in the system and picks the pool; each busy
// worker of the new pool completes its job with probability Mu (geometric
// job durations with the measured mean, not the true runtime distribution);
// the tick's arrivals land after the completions; the count is clamped to
// [0, Max].
type Queue struct {
	// Mu is the per-tick completion probability of one busy worker.
	Mu float64
	// Max truncates the jobs-in-system count.
	Max int
}

// NewQueue derives the completion probability min(1, tick/meanRuntime).
func NewQueue(tickSeconds, meanRuntimeSeconds float64, max int) Queue {
	return Queue{Mu: min(1, tickSeconds/meanRuntimeSeconds), Max: max}
}

// Busy is the number of workers serving a job on a pool of the given size.
func (k Queue) Busy(jobs, workers int) int { return min(jobs, workers) }

// Next is the jobs-in-system count after one tick's arrivals and
// completions.
func (k Queue) Next(jobs, arrivals, completed int) int {
	return min(max(jobs+arrivals-completed, 0), k.Max)
}

// Trace is the exogenous input of a replay, one entry per control tick: the
// arrival counts, the rate the policy observes, and optionally the planner
// target (nil Plans means no planner).
type Trace struct {
	Counts []int
	Rates  []float64
	Plans  []int
}

// Tick is one replayed control tick.
type Tick struct {
	// I is the tick index.
	I int
	// Obs is what was observed and Target the pool decided on it.
	Obs    Obs
	Target int
	// Arrivals is the tick's arrival count (not all need fit under Max),
	// Completed the jobs that finished, Jobs the count in the system after
	// the tick.
	Arrivals, Completed, Jobs int
}

// Replay steps a trace through the queue from an empty system on the given
// pool. Each tick decide picks the pool from the observation, the
// completions are drawn from rng (one Bernoulli draw per busy worker, in
// order), and after receives the outcome; returning false stops the replay.
// Past the end of the trace the replay keeps draining with no arrivals
// until the system is empty or maxTicks ticks have run (0 means no drain).
// It returns the number of ticks run. Rates, and Plans when set, must be as
// long as Counts.
func (k Queue) Replay(tr Trace, workers, maxTicks int, rng *finmath.RNG, decide func(Obs) int, after func(Tick) bool) int {
	mu := k.Mu
	jobs, i := 0, 0
	for ; i < len(tr.Counts) || (jobs > 0 && i < maxTicks); i++ {
		t := Tick{I: i, Obs: Backlog(jobs, workers)}
		if i < len(tr.Counts) {
			t.Arrivals, t.Obs.RatePerTick = tr.Counts[i], tr.Rates[i]
			if tr.Plans != nil {
				t.Obs.Plan = tr.Plans[i]
			}
		}
		t.Target = decide(t.Obs)
		for b := k.Busy(jobs, t.Target); b > 0; b-- {
			if rng.Float64() < mu {
				t.Completed++
			}
		}
		jobs = k.Next(jobs, t.Arrivals, t.Completed)
		t.Jobs, workers = jobs, t.Target
		if !after(t) {
			return i + 1
		}
	}
	return i
}

// Stepper adapts a policy to Replay's decide: it carries the policy's state
// from Init across calls and returns each tick's target.
func Stepper(p Policy) func(Obs) int {
	st := p.Init()
	return func(obs Obs) int {
		var target int
		st, target, _ = p.Step(st, obs)
		return target
	}
}
