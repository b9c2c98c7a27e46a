package verify

import (
	"errors"
	"fmt"

	"disarcloud/internal/elastic"
	"disarcloud/internal/finmath"
	"disarcloud/internal/loadgen"
)

// ReplayStats is the empirical side of cross-validation: the violation
// frequency (and mean cost/churn) observed over seeded trace replays of the
// request's policy through elastic.Queue — sampled arrivals and completions
// where the MDP carries their distributions.
type ReplayStats struct {
	Replays    int `json:"replays"`
	Violations int `json:"violations"`
	// Frequency is Violations/Replays — the quantity the MDP's PViolation
	// must predict within tolerance.
	Frequency float64 `json:"frequency"`
	// MeanWorkerSeconds and MeanResizes are the empirical counterparts of
	// the expected-cost and churn properties.
	MeanWorkerSeconds float64 `json:"mean_worker_seconds"`
	MeanResizes       float64 `json:"mean_resizes"`
}

// replaySeedStride spaces the per-replay trace seeds so consecutive
// replays share no loadgen substream.
const replaySeedStride = 1000003

// Replay measures the empirical violation frequency of a request over the
// given number of seeded trace replays. Each replay draws a fresh trace
// from the request's spec (seed advanced by a fixed stride) and steps the
// request's policy through it from the initial pool, the hybrid planner
// reading the profile's true rate as in the MDP. A replay violates when the
// jobs-in-system count reaches the SLA's queue bound within the horizon.
func Replay(req Request, replays int) (ReplayStats, error) {
	if err := req.Validate(); err != nil {
		return ReplayStats{}, err
	}
	if replays < 1 {
		return ReplayStats{}, errors.New("verify: at least one replay required")
	}
	d := req.withDefaults()
	horizon := d.SLA.HorizonTicks
	if n := d.Trace.WithDefaults().Intervals; n < horizon {
		return ReplayStats{}, fmt.Errorf("verify: trace has %d intervals, horizon needs %d", n, horizon)
	}
	pol, err := d.buildPolicy()
	if err != nil {
		return ReplayStats{}, err
	}
	tickSec := d.tick().Seconds()
	queue := elastic.NewQueue(tickSec, d.MeanRuntimeMS/1000, d.MaxQueue)

	stats := ReplayStats{Replays: replays}
	for r := 0; r < replays; r++ {
		spec := d.Trace
		spec.Seed += uint64(r) * replaySeedStride
		counts, rates, err := loadgen.GenerateWithRates(spec)
		if err != nil {
			return ReplayStats{}, err
		}
		tr := elastic.Trace{Counts: counts[:horizon], Rates: rates[:horizon], Plans: d.plans(rates[:horizon])}
		rng := finmath.NewRNG(spec.Seed ^ 0x5e71ca11)
		queue.Replay(tr, d.InitialWorkers, 0, rng, elastic.Stepper(pol), func(t elastic.Tick) bool {
			if t.Target != t.Obs.Workers {
				stats.MeanResizes++
			}
			stats.MeanWorkerSeconds += float64(t.Target) * tickSec
			if t.Jobs >= d.SLA.QueueBound {
				stats.Violations++
				return false
			}
			return true
		})
	}
	stats.Frequency = float64(stats.Violations) / float64(replays)
	stats.MeanWorkerSeconds /= float64(replays)
	stats.MeanResizes /= float64(replays)
	return stats, nil
}
