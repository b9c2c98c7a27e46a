// Package rl implements the learned scaling policy: a tabular Q-learning
// autoscaler trained offline against internal/elastic's clock-free queue
// kernel fed with internal/loadgen traces (train.go, sim.go), then shipped
// as a versioned Q-table artifact (table.go). The table IS the policy: it
// implements elastic.Policy, so the control loop, the simulator and
// internal/verify's model checker all run Table.Step itself — the property
// that lets a policy learned in simulation carry an exact SLA bound into
// production.
//
// State is discretized into (queue pressure bucket, arrival-rate bucket,
// forecast-slope bucket, pool-size bucket); actions are bounded resize
// steps under elastic.Cooldowns (grows obey a grow cooldown and the
// configured step bound, shrinks release one worker at a time under the
// shrink cooldown, floor/ceiling enforcement is immediate); reward is
// multi-objective — SLA violations, worker-seconds, resize churn and a
// waiting-depth shaping term — with tunable weights.
package rl

import (
	"errors"
	"fmt"
	"math"

	"disarcloud/internal/loadgen"
)

// Spec fixes everything about a learned policy: the control-plane scale it
// was trained for, the state discretization, the action set, the reward
// weights and the training hyperparameters. The spec travels inside the
// serialized artifact, so a loaded table reconstructs the exact decision
// function it was trained as.
type Spec struct {
	// MinWorkers / MaxWorkers are the pool bounds the policy targets
	// within; floor and ceiling enforcement is immediate, as in the
	// threshold policies.
	MinWorkers int `json:"min_workers"`
	MaxWorkers int `json:"max_workers"`
	// TickMS is the control period the policy was trained at; MeanRuntimeMS
	// is the mean per-job worker occupancy of the simulated workload.
	TickMS        int     `json:"tick_ms"`
	MeanRuntimeMS float64 `json:"mean_runtime_ms"`

	// PressureCuts are the ascending queue-pressure bucket boundaries
	// (pressure = jobs in system / pool size): len+1 buckets.
	PressureCuts []float64 `json:"pressure_cuts"`
	// RateCuts are the ascending arrivals-per-tick boundaries the rate is
	// bucketed by; the slope feature is the sign of the bucket change
	// between consecutive ticks.
	RateCuts []float64 `json:"rate_cuts"`
	// PoolBuckets is the pool-size feature's resolution over
	// [MinWorkers, MaxWorkers].
	PoolBuckets int `json:"pool_buckets"`

	// Steps is the ascending action set of resize deltas. It must contain
	// 0 (hold); the only negative step allowed is -1, because shrinks
	// release one worker at a time, as the reactive policy's do; the largest
	// positive step plays the role of its MaxStep.
	Steps []int `json:"steps"`
	// GrowCooldownTicks / ShrinkCooldownTicks are the elastic.Cooldowns the
	// table's actions are gated by, in ticks.
	GrowCooldownTicks   int `json:"grow_cooldown_ticks"`
	ShrinkCooldownTicks int `json:"shrink_cooldown_ticks"`

	// MaxQueue truncates the simulated jobs-in-system count; QueueBound is
	// the SLA bound the reward penalizes.
	MaxQueue   int `json:"max_queue"`
	QueueBound int `json:"queue_bound"`
	// Reward weights: per violating tick (SLAWeight), per worker-second
	// (CostWeight), per resize (ChurnWeight), and per unit of normalized
	// waiting depth — jobs in system beyond the pool (QueueWeight, the
	// p95-latency shaping term).
	SLAWeight   float64 `json:"sla_weight"`
	CostWeight  float64 `json:"cost_weight"`
	ChurnWeight float64 `json:"churn_weight"`
	QueueWeight float64 `json:"queue_weight"`

	// Q-learning hyperparameters. Epsilon is the initial exploration rate,
	// decayed linearly to a tenth over the episodes. Bandit selects the
	// contextual-bandit baseline: the same update with gamma forced to 0,
	// so each action is scored only by its immediate reward.
	Alpha    float64 `json:"alpha"`
	Gamma    float64 `json:"gamma"`
	Epsilon  float64 `json:"epsilon"`
	Episodes int     `json:"episodes"`
	Seed     uint64  `json:"seed"`
	Bandit   bool    `json:"bandit,omitempty"`
	// Traces are the training families, cycled per episode with the trace
	// seed advanced by a fixed stride so no two episodes share a loadgen
	// substream.
	Traces []loadgen.Spec `json:"traces"`
}

// Spec bounds: generous enough for experimentation, tight enough that a
// corrupted artifact fails validation instead of allocating gigabytes.
const (
	maxSpecWorkers  = 256
	maxSpecCuts     = 16
	maxSpecSteps    = 16
	maxSpecStep     = 8
	maxSpecCooldown = 1000
	maxSpecQueue    = 4096
	maxSpecEpisodes = 100_000
	maxSpecWeight   = 1e6
)

// Validate reports whether the spec is admissible.
func (s Spec) Validate() error {
	if s.MinWorkers < 1 {
		return errors.New("rl: MinWorkers must be at least 1")
	}
	if s.MaxWorkers < s.MinWorkers || s.MaxWorkers > maxSpecWorkers {
		return fmt.Errorf("rl: MaxWorkers %d outside [MinWorkers=%d, %d]", s.MaxWorkers, s.MinWorkers, maxSpecWorkers)
	}
	if s.TickMS < 1 || s.TickMS > 60_000 {
		return fmt.Errorf("rl: tick %dms outside [1, 60000]", s.TickMS)
	}
	if !(s.MeanRuntimeMS > 0) || math.IsInf(s.MeanRuntimeMS, 0) || s.MeanRuntimeMS > 1e9 {
		return fmt.Errorf("rl: mean runtime %gms must be positive, finite, and sane", s.MeanRuntimeMS)
	}
	if err := validCuts("pressure", s.PressureCuts); err != nil {
		return err
	}
	if err := validCuts("rate", s.RateCuts); err != nil {
		return err
	}
	if s.PoolBuckets < 1 || s.PoolBuckets > 32 {
		return fmt.Errorf("rl: pool buckets %d outside [1, 32]", s.PoolBuckets)
	}
	if len(s.Steps) < 2 || len(s.Steps) > maxSpecSteps {
		return fmt.Errorf("rl: %d actions outside [2, %d]", len(s.Steps), maxSpecSteps)
	}
	hasZero := false
	for i, st := range s.Steps {
		if i > 0 && st <= s.Steps[i-1] {
			return errors.New("rl: Steps must be strictly ascending")
		}
		if st == 0 {
			hasZero = true
		}
		if st < -1 {
			return fmt.Errorf("rl: step %d below -1: shrinks release one worker at a time", st)
		}
		if st > maxSpecStep {
			return fmt.Errorf("rl: step %d above the %d-worker bound", st, maxSpecStep)
		}
	}
	if !hasZero {
		return errors.New("rl: Steps must contain 0 (hold)")
	}
	if s.GrowCooldownTicks < 0 || s.GrowCooldownTicks > maxSpecCooldown ||
		s.ShrinkCooldownTicks < 0 || s.ShrinkCooldownTicks > maxSpecCooldown {
		return fmt.Errorf("rl: cooldown ticks outside [0, %d]", maxSpecCooldown)
	}
	if s.MaxQueue < 1 || s.MaxQueue > maxSpecQueue {
		return fmt.Errorf("rl: max queue %d outside [1, %d]", s.MaxQueue, maxSpecQueue)
	}
	if s.QueueBound < 1 || s.QueueBound > s.MaxQueue {
		return fmt.Errorf("rl: queue bound %d outside [1, MaxQueue=%d]", s.QueueBound, s.MaxQueue)
	}
	for _, w := range []float64{s.SLAWeight, s.CostWeight, s.ChurnWeight, s.QueueWeight} {
		if !(w >= 0) || w > maxSpecWeight {
			return fmt.Errorf("rl: reward weight %g outside [0, %g]", w, float64(maxSpecWeight))
		}
	}
	if !(s.Alpha > 0) || s.Alpha > 1 {
		return fmt.Errorf("rl: alpha %g outside (0, 1]", s.Alpha)
	}
	if !(s.Gamma >= 0) || s.Gamma >= 1 {
		return fmt.Errorf("rl: gamma %g outside [0, 1)", s.Gamma)
	}
	if !(s.Epsilon >= 0) || s.Epsilon > 1 {
		return fmt.Errorf("rl: epsilon %g outside [0, 1]", s.Epsilon)
	}
	if s.Episodes < 1 || s.Episodes > maxSpecEpisodes {
		return fmt.Errorf("rl: episodes %d outside [1, %d]", s.Episodes, maxSpecEpisodes)
	}
	if len(s.Traces) == 0 {
		return errors.New("rl: at least one training trace family required")
	}
	for i, tr := range s.Traces {
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("rl: training trace %d: %w", i, err)
		}
	}
	return nil
}

// validCuts checks one ascending bucket-boundary slice.
func validCuts(name string, cuts []float64) error {
	if len(cuts) < 1 || len(cuts) > maxSpecCuts {
		return fmt.Errorf("rl: %d %s cuts outside [1, %d]", len(cuts), name, maxSpecCuts)
	}
	for i, c := range cuts {
		if !(c >= 0) || math.IsInf(c, 0) {
			return fmt.Errorf("rl: %s cut %g must be finite and non-negative", name, c)
		}
		if i > 0 && c <= cuts[i-1] {
			return fmt.Errorf("rl: %s cuts must be strictly ascending", name)
		}
	}
	return nil
}

// NumStates is the Q-table's row count: pressure buckets x rate buckets x
// 3 slopes x pool buckets.
func (s Spec) NumStates() int {
	return (len(s.PressureCuts) + 1) * (len(s.RateCuts) + 1) * 3 * s.PoolBuckets
}

// NumActions is the Q-table's column count.
func (s Spec) NumActions() int { return len(s.Steps) }

// TickSeconds is the control period in seconds.
func (s Spec) TickSeconds() float64 { return float64(s.TickMS) / 1000 }

// MeanRuntimeSeconds is the per-job occupancy in seconds.
func (s Spec) MeanRuntimeSeconds() float64 { return s.MeanRuntimeMS / 1000 }

// bucket returns the index of v among ascending cut boundaries: 0 below
// the first cut, len(cuts) at or above the last.
func bucket(v float64, cuts []float64) int {
	b := 0
	for _, c := range cuts {
		if v >= c {
			b++
		}
	}
	return b
}

// DefaultSpec is the shipped training configuration: a 2..16-worker pool
// at a 100ms control tick serving 1s mean jobs (each worker is ~10 ticks
// per job, so staffing errors are visible in the latency tail), pressure
// cuts bracketing the reactive controller's hysteresis band, rate cuts and
// one pool bucket per pool size giving the table a per-load staffing
// lookup, and reward weights that price one SLA-violating tick like ~100
// worker-seconds. Trained over all four trace families, this spec's greedy
// policy beats the hybrid planner's p95 at lower worker-seconds on every
// family (see internal/experiments.RunPolicyComparison).
func DefaultSpec() Spec {
	return Spec{
		MinWorkers:          2,
		MaxWorkers:          16,
		TickMS:              100,
		MeanRuntimeMS:       1000,
		PressureCuts:        []float64{0.5, 1.0, 1.5, 3.0},
		RateCuts:            []float64{0.45, 0.6, 0.75, 0.9, 1.05},
		PoolBuckets:         15,
		Steps:               []int{-1, 0, 1, 2, 4},
		GrowCooldownTicks:   1,
		ShrinkCooldownTicks: 1,
		MaxQueue:            64,
		QueueBound:          32,
		SLAWeight:           100,
		CostWeight:          1,
		ChurnWeight:         0.05,
		QueueWeight:         6,
		Alpha:               0.2,
		Gamma:               0.92,
		Epsilon:             0.25,
		Episodes:            4000,
		Seed:                2016,
		Traces: []loadgen.Spec{
			{Kind: loadgen.Diurnal, Intervals: 256, Seed: 1, BaseRate: 0.3, PeakRate: 1.2, Period: 64},
			{Kind: loadgen.Bursty, Intervals: 256, Seed: 2, BaseRate: 0.3, PeakRate: 1.2},
			{Kind: loadgen.Flash, Intervals: 256, Seed: 3, BaseRate: 0.3, PeakRate: 1.2},
			{Kind: loadgen.Weekly, Intervals: 448, Seed: 4, BaseRate: 0.3, PeakRate: 1.2, Period: 32},
		},
	}
}
