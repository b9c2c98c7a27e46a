// Package forecast is the proactive half of the elastic control plane: a
// workload-forecasting subsystem that turns the service's recent telemetry
// into a feed-forward worker target.
//
// The reactive controller (internal/elastic) only ever sees queue pressure
// that has already happened, so every burst pays a scale-up lag. This
// package closes that gap the way the ML-centric resource-management
// literature prescribes: a Recorder accumulates per-interval telemetry
// samples (submissions, completions, queue depth, backlog ETA), a family of
// Forecaster models (EWMA, Holt double-exponential, Holt-Winters seasonal,
// and an autoregressive model trained with internal/ml's ridge regression
// on lagged windows) predicts the next interval's arrivals, a rolling-
// backtest Selector picks whichever model has the lowest sMAPE over recent
// history, and a Planner converts the forecast arrival rate times the
// predicted mean job runtime into a worker target with a headroom factor
// (Little's law). The owning service takes the maximum of the reactive
// decision and the proactive target — the hybrid policy.
//
// Everything here is pure computation: no goroutines, no clocks, no I/O.
// Given the same series every model fits, forecasts and backtests
// bit-identically, which the regression suite asserts.
package forecast

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Sample is one control-loop interval's telemetry, as the service's control
// loop records it.
type Sample struct {
	// At is the end of the interval (the control-loop tick time).
	At time.Time
	// Submissions is the number of jobs accepted during the interval.
	Submissions int
	// Completions is the number of jobs that reached a terminal state during
	// the interval.
	Completions int
	// QueueDepth is the accepted-but-unstarted backlog at the tick.
	QueueDepth int
	// BacklogETASeconds is the predictor-estimated total runtime of the
	// queued jobs at the tick.
	BacklogETASeconds float64
}

// Recorder is a fixed-capacity ring of telemetry samples, oldest evicted
// first. It is safe for concurrent use: the control loop appends while
// status endpoints snapshot.
type Recorder struct {
	mu    sync.Mutex
	ring  []Sample
	head  int // index of the oldest sample
	count int
	total uint64 // samples ever recorded (survives eviction)
}

// NewRecorder returns a recorder holding the last capacity samples.
func NewRecorder(capacity int) (*Recorder, error) {
	if capacity < 2 {
		return nil, errors.New("forecast: recorder capacity must be at least 2")
	}
	return &Recorder{ring: make([]Sample, capacity)}, nil
}

// Add appends one sample, evicting the oldest at capacity.
func (r *Recorder) Add(s Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count < len(r.ring) {
		r.ring[(r.head+r.count)%len(r.ring)] = s
		r.count++
	} else {
		r.ring[r.head] = s
		r.head = (r.head + 1) % len(r.ring)
	}
	r.total++
}

// Len returns the number of samples currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Total returns the number of samples ever recorded, including evicted ones.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Samples returns a copy of the held samples, oldest first.
func (r *Recorder) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.ring[(r.head+i)%len(r.ring)]
	}
	return out
}

// Arrivals returns the submission counts as a float series, oldest first —
// the demand signal the forecasters are fitted on.
func (r *Recorder) Arrivals() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = float64(r.ring[(r.head+i)%len(r.ring)].Submissions)
	}
	return out
}

// Config parameterises the forecasting subsystem as the service consumes it.
// The zero value of every field selects the documented default.
type Config struct {
	// Window is the recorder capacity in control-loop intervals (default
	// DefaultWindow).
	Window int
	// MinSamples is how many samples must accumulate before the planner
	// produces targets (default DefaultMinSamples). Below it the hybrid
	// policy degenerates to the reactive controller alone.
	MinSamples int
	// Headroom is the multiplicative safety factor on the planner's
	// Little's-law target (default DefaultHeadroom). Must be >= 1.
	Headroom float64
	// Horizon is how many intervals ahead the planner forecasts; the
	// per-interval arrival forecast is the mean over the horizon (default
	// DefaultHorizon). Averaging a few steps damps the single-step noise
	// amplification of the autoregressive candidate — one spiky interval
	// must not slam the pool to its ceiling.
	Horizon int
	// SeasonPeriod is the seasonality hint, in intervals, for the
	// Holt-Winters candidate; 0 or 1 omits it from the candidate set
	// (seasonal fitting on non-seasonal load is pure noise).
	SeasonPeriod int
	// ARLags is the autoregressive candidate's window length (default
	// DefaultARLags).
	ARLags int
	// ReselectEvery is how many control ticks pass between full backtest
	// reselections; between them the incumbent model is simply refitted on
	// the fresh series (default DefaultReselectEvery).
	ReselectEvery int
	// BacktestWindow is how many of the most recent observations the
	// rolling backtest evaluates over (default DefaultBacktestWindow,
	// always capped at half the series so every origin has at least as much
	// training history as evaluation future). Smaller windows adapt the
	// model choice faster and let long-period seasonal candidates qualify
	// earlier; larger windows rank on more evidence.
	BacktestWindow int
	// BacktestStride subsamples the rolling-backtest origins to bound the
	// per-reselection cost (default DefaultBacktestStride; 1 = every origin).
	BacktestStride int
	// RuntimeAlpha is the EWMA weight of the mean-job-runtime tracker
	// (default DefaultRuntimeAlpha).
	RuntimeAlpha float64
}

// Defaults for Config's zero fields.
const (
	DefaultWindow         = 256
	DefaultMinSamples     = 8
	DefaultHeadroom       = 1.2
	DefaultHorizon        = 3
	DefaultARLags         = 8
	DefaultReselectEvery  = 16
	DefaultBacktestWindow = 48
	DefaultBacktestStride = 2
	DefaultRuntimeAlpha   = 0.2
)

// WithDefaults returns the config with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.Headroom == 0 {
		c.Headroom = DefaultHeadroom
	}
	if c.Horizon == 0 {
		c.Horizon = DefaultHorizon
	}
	if c.ARLags == 0 {
		c.ARLags = DefaultARLags
	}
	if c.ReselectEvery == 0 {
		c.ReselectEvery = DefaultReselectEvery
	}
	if c.BacktestWindow == 0 {
		c.BacktestWindow = DefaultBacktestWindow
	}
	if c.BacktestStride == 0 {
		c.BacktestStride = DefaultBacktestStride
	}
	if c.RuntimeAlpha == 0 {
		c.RuntimeAlpha = DefaultRuntimeAlpha
	}
	return c
}

// Validate reports whether the (defaulted) config is admissible.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Window < 2 {
		return errors.New("forecast: Window must be at least 2")
	}
	if c.MinSamples < 2 || c.MinSamples > c.Window {
		return fmt.Errorf("forecast: MinSamples %d outside [2, Window=%d]", c.MinSamples, c.Window)
	}
	if !(c.Headroom >= 1) || math.IsInf(c.Headroom, 1) {
		return fmt.Errorf("forecast: Headroom %g is not a finite factor >= 1", c.Headroom)
	}
	if c.Horizon < 1 {
		return errors.New("forecast: Horizon must be at least 1")
	}
	if c.SeasonPeriod < 0 || c.SeasonPeriod > c.Window/2 {
		return fmt.Errorf("forecast: SeasonPeriod %d outside [0, %d]: Holt-Winters needs two full seasons inside Window %d", c.SeasonPeriod, c.Window/2, c.Window)
	}
	if c.ARLags < 1 {
		return errors.New("forecast: ARLags must be at least 1")
	}
	if c.ReselectEvery < 1 {
		return errors.New("forecast: ReselectEvery must be at least 1")
	}
	if c.BacktestWindow < 2 {
		return errors.New("forecast: BacktestWindow must be at least 2")
	}
	if c.BacktestStride < 1 {
		return errors.New("forecast: BacktestStride must be at least 1")
	}
	if c.RuntimeAlpha <= 0 || c.RuntimeAlpha > 1 {
		return fmt.Errorf("forecast: RuntimeAlpha %g outside (0,1]", c.RuntimeAlpha)
	}
	return nil
}

// Candidates builds the model family the selector backtests, as the config
// prescribes: EWMA, Holt, the AR(lags) ridge model, and — when a season
// period is configured — Holt-Winters.
func (c Config) Candidates() []Forecaster {
	c = c.WithDefaults()
	models := []Forecaster{
		NewEWMA(0),
		NewHolt(0, 0),
		NewAutoregressive(c.ARLags),
	}
	if c.SeasonPeriod > 1 {
		models = append(models, NewHoltWinters(0, 0, 0, c.SeasonPeriod))
	}
	return models
}
