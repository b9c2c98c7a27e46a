package core

import (
	"math"
	"sync"
	"time"

	"disarcloud/internal/forecast"
)

// ForecastStatus is a point-in-time view of the proactive provisioning
// subsystem: the telemetry recorder, the model selection scoreboard, and
// the planner's latest feed-forward target.
type ForecastStatus struct {
	// Enabled is false when the service runs without WithForecast.
	Enabled bool
	// Samples is the number of telemetry samples currently held;
	// TotalSamples counts every sample ever recorded (the ring evicts).
	Samples      int
	TotalSamples uint64
	// Model is the backtest winner currently producing forecasts; empty
	// until enough history accumulates for a first selection. SMAPE is its
	// rolling one-step-ahead score, and Scores the full scoreboard of the
	// last reselection.
	Model  string
	SMAPE  float64
	Scores []forecast.Score
	// NextIntervalArrivals is the latest one-step demand forecast, in jobs
	// per control-loop interval.
	NextIntervalArrivals float64
	// MeanRuntimeSeconds is the per-job worker-occupancy estimate the
	// planner multiplies the arrival rate by: the EWMA of KB-ensemble
	// predictions when available, measured wall-clock durations otherwise.
	MeanRuntimeSeconds float64
	// PlannerTarget is the latest proactive worker target (0 = no opinion);
	// the hybrid policy applies max(reactive, proactive).
	PlannerTarget int
	// Headroom, Window and MinSamples echo the configuration in force.
	Headroom   float64
	Window     int
	MinSamples int
	// LastError is the most recent selection failure (e.g. history still
	// too short for every candidate); empty when selection succeeds.
	LastError string
}

// forecastState is the service-side glue of the proactive subsystem: the
// telemetry recorder fed by the control loop, the model selector, the
// planner, and the per-job runtime-occupancy trackers.
type forecastState struct {
	cfg     forecast.Config
	rec     *forecast.Recorder
	sel     *forecast.Selector
	planner forecast.Planner
	// est is the KB-ensemble runtime estimator used to price submissions
	// when admission control has not already configured one.
	est RuntimeEstimator

	mu sync.Mutex
	// lastCompleted differences the scheduler's monotone completion counter
	// into per-interval counts.
	lastCompleted uint64
	// predOcc is the EWMA of predicted per-job worker occupancy in seconds
	// (KB-ensemble estimate scaled by the job's pace factor); measOcc the
	// EWMA of measured wall-clock job durations — the bootstrap fallback
	// while the ensemble is untrained.
	predOcc, measOcc float64
	// ticks counts plan calls for the reselection cadence; choice is the
	// incumbent model between reselections.
	ticks      int
	choice     forecast.Choice
	haveChoice bool
	// lastScores is the most recent reselection's scoreboard, kept even
	// when no candidate won so the skip reasons stay diagnosable.
	lastScores []forecast.Score
	// Telemetry for ForecastStatus.
	lastForecast  float64
	lastTarget    int
	lastSelectErr string
}

// newForecastState wires the subsystem from a validated config.
func newForecastState(cfg forecast.Config, est RuntimeEstimator) (*forecastState, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rec, err := forecast.NewRecorder(cfg.Window)
	if err != nil {
		return nil, err
	}
	return &forecastState{
		cfg:     cfg,
		rec:     rec,
		sel:     forecast.NewSelector(cfg),
		planner: forecast.NewPlanner(cfg.Headroom),
		est:     est,
	}, nil
}

// record turns one scheduler snapshot and the tick's arrival count into a
// telemetry sample.
func (f *forecastState) record(now time.Time, st schedStats, arrivals int) {
	f.mu.Lock()
	comps := st.CompletedTotal - f.lastCompleted
	f.lastCompleted = st.CompletedTotal
	f.mu.Unlock()
	f.rec.Add(forecast.Sample{
		At:                now,
		Submissions:       arrivals,
		Completions:       int(comps),
		QueueDepth:        st.Queued,
		BacklogETASeconds: st.QueuedETA,
	})
}

// foldOcc folds one observation into an occupancy EWMA (first observation
// seeds it), discarding non-positive and non-finite values.
func (f *forecastState) foldOcc(occ *float64, seconds float64) {
	if !(seconds > 0) || math.IsInf(seconds, 0) {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if *occ == 0 {
		*occ = seconds
	} else {
		*occ += f.cfg.RuntimeAlpha * (seconds - *occ)
	}
}

// observePredicted folds one submission's predicted worker occupancy
// (KB-ensemble runtime estimate scaled to wall-clock seconds) into the
// planner's mean-runtime EWMA.
func (f *forecastState) observePredicted(seconds float64) { f.foldOcc(&f.predOcc, seconds) }

// observeMeasured folds one completed job's measured wall-clock duration
// into the fallback runtime EWMA — the signal that keeps the planner alive
// while the ensemble is still untrained (the bootstrap phase).
func (f *forecastState) observeMeasured(seconds float64) { f.foldOcc(&f.measOcc, seconds) }

// meanRuntimeLocked is the planner's per-job occupancy: the leaner of the
// KB-ensemble prediction and the measured wall-clock EWMA, either alone
// when only one signal exists (measured carries the bootstrap phase before
// the ensemble trains). Taking the minimum once both exist is deliberate:
// measured durations inflate under transient CPU contention, and planning
// on inflated occupancy feeds the inflation back into the target (more
// workers, more contention, longer measurements), while an ensemble that
// overestimates would silently over-provision every interval — each signal
// caps the other's failure mode, and the headroom factor, not the
// occupancy estimate, is where deliberate slack belongs.
func (f *forecastState) meanRuntimeLocked() float64 {
	switch {
	case f.predOcc > 0 && f.measOcc > 0:
		return math.Min(f.predOcc, f.measOcc)
	case f.predOcc > 0:
		return f.predOcc
	default:
		return f.measOcc
	}
}

// plan produces the proactive worker target for the next interval:
// forecast the coming arrivals with the incumbent model (reselecting by
// rolling backtest every ReselectEvery ticks), convert to a rate, and
// apply Little's law with headroom. A target of 0 means "no opinion" — not
// enough history, no fitted model, or no runtime signal yet — and leaves
// the reactive policy alone.
func (f *forecastState) plan(tick time.Duration, maxWorkers int) int {
	if f.rec.Len() < f.cfg.MinSamples {
		return 0
	}
	series := f.rec.Arrivals()
	f.mu.Lock()
	f.ticks++
	reselect := !f.haveChoice || f.ticks%f.cfg.ReselectEvery == 0
	incumbent := f.choice.Model
	have := f.haveChoice
	f.mu.Unlock()

	// The model work runs OUTSIDE the mutex: a full reselection backtest
	// costs milliseconds, and holding the lock across it would stall every
	// concurrent Submit (observePredicted) and status read behind the
	// control loop. plan itself is only ever called from that single loop,
	// so choice mutations cannot race each other; the lock only guards the
	// fields the other paths touch.
	var selected forecast.Choice
	var fitErr error
	if reselect {
		selected, fitErr = f.sel.Select(series)
	} else if have {
		// Between reselections the incumbent just refits on the fresh series
		// — cheap for the smoothing filters, one ridge solve for AR. Only
		// plan reads the model's internals, so fitting unlocked is safe.
		fitErr = incumbent.Fit(series)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if reselect {
		// Keep the scoreboard even when no candidate won: the per-model
		// Skipped reasons are exactly what an operator needs while history
		// is still too short for every family.
		f.lastScores = selected.Scores
	}
	switch {
	case reselect && fitErr == nil:
		f.choice = selected
		f.haveChoice = true
		f.lastSelectErr = ""
	case fitErr != nil:
		f.lastSelectErr = fitErr.Error()
		if !reselect {
			// The incumbent no longer fits the series; force a reselection.
			f.haveChoice = false
		}
	}
	if !f.haveChoice {
		f.lastTarget = 0
		return 0
	}
	// Mean over the horizon, non-finite and negative steps floored to 0:
	// the demand signal is a count, one spiky extrapolation step must not
	// dominate, and a +Inf from an explosive AR feedback would otherwise
	// poison the status (and its JSON encoding) even though the planner
	// itself guards against it.
	var next float64
	for _, v := range f.choice.Model.Forecast(f.cfg.Horizon) {
		if v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			next += v
		}
	}
	next /= float64(f.cfg.Horizon)
	f.lastForecast = next
	target := f.planner.Target(next/tick.Seconds(), f.meanRuntimeLocked())
	if target > maxWorkers {
		target = maxWorkers
	}
	f.lastTarget = target
	return target
}

// status snapshots the subsystem for ForecastStatus.
func (f *forecastState) status() ForecastStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := ForecastStatus{
		Enabled:              true,
		Samples:              f.rec.Len(),
		TotalSamples:         f.rec.Total(),
		NextIntervalArrivals: f.lastForecast,
		MeanRuntimeSeconds:   f.meanRuntimeLocked(),
		PlannerTarget:        f.lastTarget,
		Headroom:             f.planner.Headroom,
		Window:               f.cfg.Window,
		MinSamples:           f.cfg.MinSamples,
		LastError:            f.lastSelectErr,
	}
	out.Scores = append([]forecast.Score(nil), f.lastScores...)
	if f.haveChoice {
		out.Model = f.choice.Name
		out.SMAPE = f.choice.SMAPE
	}
	return out
}

// ForecastStatus returns a snapshot of the proactive provisioning
// subsystem. On a service without WithForecast only Enabled=false is set.
func (s *Service) ForecastStatus() ForecastStatus {
	if s.fc == nil {
		return ForecastStatus{}
	}
	return s.fc.status()
}
