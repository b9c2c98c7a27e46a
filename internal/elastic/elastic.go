// Package elastic implements the capacity-decision side of the paper's
// "Elastic Cloud Resource Provisioning" claim: the scaling policies that
// observe the valuation service's load (queue depth, jobs in flight,
// predictor-estimated backlog, deadline slack, arrival rate, a planner
// target) and decide when the worker pool should grow or shrink.
//
// Every policy is one pure, clock-free finite-state machine: Step maps
// (State, Obs) to the successor state, a worker target and a reason, one
// call per control tick. That single definition is what the live control
// loop runs (through Controller, the wall-clock adapter in controller.go),
// what internal/rl trains and simulates against, and what internal/verify
// enumerates into a Markov chain — so a bound the model checker proves is a
// bound on the code the daemon runs. The bounded backlog those analyses
// step the policies against lives here too (queue.go).
package elastic

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Default policy parameters, chosen so a small pool reacts within a few
// control ticks to a campaign burst but does not thrash on single jobs.
const (
	// DefaultScaleUpPressure is the queued+running jobs per worker above
	// which the pool grows.
	DefaultScaleUpPressure = 1.5
	// DefaultScaleDownPressure is the load per worker below which the pool
	// is allowed to shrink. It must sit strictly below the scale-up
	// threshold: the gap is the hysteresis band in which the controller
	// holds steady.
	DefaultScaleDownPressure = 0.5
	// DefaultScaleUpCooldown separates consecutive grow decisions.
	DefaultScaleUpCooldown = 50 * time.Millisecond
	// DefaultScaleDownCooldown separates consecutive shrink decisions (and a
	// shrink from the last grow), so the pool never oscillates inside one
	// burst.
	DefaultScaleDownCooldown = 500 * time.Millisecond
	// DefaultShrinkStableFor is how long the load must stay below the
	// scale-down threshold before the first shrink fires.
	DefaultShrinkStableFor = 500 * time.Millisecond
	// DefaultMaxStep bounds how many workers one grow decision may add.
	DefaultMaxStep = 4
)

// Config parameterises the threshold policies (Reactive, Hybrid).
type Config struct {
	// MinWorkers is the pool floor; the policy never targets below it.
	// Zero defaults to 1.
	MinWorkers int
	// MaxWorkers is the pool ceiling — the elastic analogue of the
	// Constraints.MaxNodes bound Algorithm 1 searches under. Required.
	MaxWorkers int
	// ScaleUpPressure and ScaleDownPressure are the per-worker load
	// thresholds (queued+running jobs divided by workers) that trigger
	// growth and permit shrinking. ScaleDownPressure must be strictly below
	// ScaleUpPressure; the gap is the hysteresis band.
	ScaleUpPressure   float64
	ScaleDownPressure float64
	// ScaleUpCooldown and ScaleDownCooldown are the minimum times between
	// consecutive grow and shrink decisions.
	ScaleUpCooldown   time.Duration
	ScaleDownCooldown time.Duration
	// ShrinkStableFor is how long the load must continuously sit below
	// ScaleDownPressure before a shrink is taken — transient idle gaps
	// between bursts keep the pool warm.
	ShrinkStableFor time.Duration
	// MaxStep caps workers added by a single grow decision (shrinks always
	// step down one worker at a time). Zero defaults to DefaultMaxStep.
	MaxStep int
}

// WithDefaults returns the config with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.MinWorkers == 0 {
		c.MinWorkers = 1
	}
	if c.ScaleUpPressure == 0 {
		c.ScaleUpPressure = DefaultScaleUpPressure
	}
	if c.ScaleDownPressure == 0 {
		c.ScaleDownPressure = DefaultScaleDownPressure
	}
	if c.ScaleUpCooldown == 0 {
		c.ScaleUpCooldown = DefaultScaleUpCooldown
	}
	if c.ScaleDownCooldown == 0 {
		c.ScaleDownCooldown = DefaultScaleDownCooldown
	}
	if c.ShrinkStableFor == 0 {
		c.ShrinkStableFor = DefaultShrinkStableFor
	}
	if c.MaxStep == 0 {
		c.MaxStep = DefaultMaxStep
	}
	return c
}

// Validate reports whether the (defaulted) config is admissible.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.MinWorkers < 1 {
		return errors.New("elastic: MinWorkers must be at least 1")
	}
	if c.MaxWorkers < c.MinWorkers {
		return fmt.Errorf("elastic: MaxWorkers %d below MinWorkers %d", c.MaxWorkers, c.MinWorkers)
	}
	if !(c.ScaleDownPressure >= 0 && c.ScaleDownPressure < c.ScaleUpPressure) || math.IsInf(c.ScaleUpPressure, 1) {
		return fmt.Errorf("elastic: pressure thresholds need 0 <= scale-down %.3g < scale-up %.3g < +Inf (the hysteresis band)",
			c.ScaleDownPressure, c.ScaleUpPressure)
	}
	if c.ScaleUpCooldown < 0 || c.ScaleDownCooldown < 0 || c.ShrinkStableFor < 0 {
		return errors.New("elastic: cooldowns must be non-negative")
	}
	if c.MaxStep < 1 {
		return errors.New("elastic: MaxStep must be at least 1")
	}
	return nil
}

// Obs is one control-tick observation, the single input type of every
// scaling policy. The live control loop fills it from the scheduler; the
// simulator and the model checker fill it from their queue state through
// Backlog.
type Obs struct {
	// Queued is the number of accepted jobs waiting for a worker.
	Queued int
	// InFlight is the number of jobs currently executing.
	InFlight int
	// Workers is the pool's current target size.
	Workers int
	// BacklogETASeconds is the predictor-estimated total runtime of the
	// queued jobs (the KB-driven signal); 0 when no estimates are available.
	BacklogETASeconds float64
	// SlackSeconds is the time remaining until the earliest deadline among
	// queued jobs; <= 0 means no queued job carries a finite deadline. The
	// simulator and the model checker carry no per-job deadlines, so there
	// the deadline trigger never fires.
	SlackSeconds float64
	// RatePerTick is the arrival rate in jobs per control tick: live, the
	// submissions counted over the last tick; in the simulator and the model
	// checker, the trace's true rate.
	RatePerTick float64
	// Plan is the feed-forward planner's worker target, 0 meaning "no
	// opinion": live, the fitted forecast's; in the simulator and the model
	// checker, the planner applied to the true rate (a perfect forecaster).
	// Only Hybrid reads it.
	Plan int
}

// Backlog is the observation of jobs in the system on a pool of the given
// size: as many in flight as there are workers, the rest waiting.
func Backlog(jobs, workers int) Obs {
	jobs = max(jobs, 0)
	inFlight := max(min(jobs, workers), 0)
	return Obs{Queued: jobs - inFlight, InFlight: inFlight, Workers: workers}
}

// Jobs is the number of jobs in the system, waiting plus executing.
func (o Obs) Jobs() int { return o.Queued + o.InFlight }

// Pressure is the load per worker the thresholds are compared against.
func (o Obs) Pressure() float64 {
	return float64(o.Jobs()) / float64(max(o.Workers, 1))
}

// State is a policy's memory between ticks, comparable so the model checker
// can enumerate and deduplicate it. The first three fields count time in
// the policy's own ticks and are the ones Controller advances when
// wall-clock observations arrive irregularly; unused fields stay zero.
type State struct {
	// SinceUp and SinceDown count ticks since the last grow and the last
	// shrink, saturating at the cooldowns they are compared against.
	SinceUp, SinceDown int64
	// Low is 0 while the load is not below the scale-down threshold, and
	// k > 0 once it has been below it for k-1 ticks.
	Low int64
	// Shed counts consecutive decisions the planner target sat below the
	// pool (Hybrid).
	Shed int64
	// PrevRate is the previous observation's rate bucket plus one, zero
	// before the first observation (internal/rl's slope feature).
	PrevRate int64
}

// Policy is a scaling policy: a pure function of (state, observation), so
// the same Step serves the live control loop, the simulator and the model
// checker's exhaustive enumeration. Implementations must keep no mutable
// state of their own.
type Policy interface {
	// Name identifies the policy family in status reports.
	Name() string
	// Init returns the state of a freshly deployed policy.
	Init() State
	// Step evaluates one control tick: the successor state, the worker
	// target (Obs.Workers when holding) and the reason for acting, empty
	// when the policy holds.
	Step(st State, obs Obs) (next State, target int, reason string)
}

// TicksOf converts a duration threshold to whole ticks, rounding up: with
// decisions taken at exact tick multiples, elapsed >= d first holds at
// ceil(d/tick) ticks. It is the one duration-to-tick conversion.
func TicksOf(d, tick time.Duration) int64 {
	if d <= 0 || tick <= 0 {
		return 0
	}
	return int64((d + tick - 1) / tick)
}

// satInc increments a saturating counter; a value already past the cap
// (Controller advances counters without knowing their caps) comes back to it.
func satInc(v, cap int64) int64 {
	if v < cap {
		return v + 1
	}
	return cap
}

// Cooldowns are the grow and shrink rate limits in ticks, and the one set
// of saturating counters every policy enforces them with: a grow needs Up
// ticks since the last grow; a shrink needs Down ticks since the last
// shrink and since the last grow (a shrink on the heels of a grow is always
// a thrash). A policy stamps a resize by zeroing SinceUp or SinceDown.
type Cooldowns struct {
	Up, Down int64
}

// capUp is SinceUp's saturation point: it is compared against both
// cooldowns, so it counts to the larger.
func (c Cooldowns) capUp() int64 { return max(c.Up, c.Down) }

// Init is the state of a policy that has never resized: both cooldowns read
// as long expired.
func (c Cooldowns) Init() State { return State{SinceUp: c.capUp(), SinceDown: c.Down} }

// GrowReady reports whether the grow cooldown has elapsed.
func (c Cooldowns) GrowReady(st State) bool { return st.SinceUp >= c.Up }

// ShrinkReady reports whether a shrink is clear of both cooldowns.
func (c Cooldowns) ShrinkReady(st State) bool {
	return st.SinceDown >= c.Down && st.SinceUp >= c.Down
}

// Tick advances both counters by one tick.
func (c Cooldowns) Tick(st State) State {
	st.SinceUp = satInc(st.SinceUp, c.capUp())
	st.SinceDown = satInc(st.SinceDown, c.Down)
	return st
}

// Reactive is the threshold policy: grow on queue or deadline pressure,
// shrink one worker at a time after the load has sat below the scale-down
// threshold for a stability window, both rate-limited by cooldowns.
// Reasons: "backlog" (load above the scale-up threshold), "deadline"
// (predicted backlog completion busts the earliest queued deadline), "idle"
// (load below the scale-down threshold for the stability window),
// "floor"/"ceiling" (bound enforcement).
type Reactive struct {
	cfg    Config
	cd     Cooldowns
	stable int64
}

// NewReactive validates the config (after applying defaults) and converts
// its durations to ticks of the given length.
func NewReactive(cfg Config, tick time.Duration) (*Reactive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tick <= 0 {
		return nil, errors.New("elastic: control tick must be positive")
	}
	cfg = cfg.WithDefaults()
	return &Reactive{
		cfg:    cfg,
		cd:     Cooldowns{Up: TicksOf(cfg.ScaleUpCooldown, tick), Down: TicksOf(cfg.ScaleDownCooldown, tick)},
		stable: TicksOf(cfg.ShrinkStableFor, tick),
	}, nil
}

// Name implements Policy.
func (p *Reactive) Name() string { return "reactive" }

// Config returns the defaulted configuration in force.
func (p *Reactive) Config() Config { return p.cfg }

// Params reports the thresholds in force for status surfaces.
func (p *Reactive) Params() map[string]float64 {
	return map[string]float64{
		"min_workers":            float64(p.cfg.MinWorkers),
		"max_workers":            float64(p.cfg.MaxWorkers),
		"scale_up_pressure":      p.cfg.ScaleUpPressure,
		"scale_down_pressure":    p.cfg.ScaleDownPressure,
		"scale_up_cooldown_ms":   float64(p.cfg.ScaleUpCooldown.Milliseconds()),
		"scale_down_cooldown_ms": float64(p.cfg.ScaleDownCooldown.Milliseconds()),
		"max_step":               float64(p.cfg.MaxStep),
	}
}

// Init implements Policy.
func (p *Reactive) Init() State { return p.cd.Init() }

// Step implements Policy.
func (p *Reactive) Step(st State, obs Obs) (State, int, string) {
	cfg, w := p.cfg, obs.Workers
	target, reason := w, ""
	switch {
	// Bound enforcement first: a pool outside [Min, Max] (e.g. after a
	// config change) is corrected immediately, ignoring cooldowns, stamping
	// none and leaving the stability window alone.
	case w < cfg.MinWorkers:
		target, reason = cfg.MinWorkers, "floor"
	case w > cfg.MaxWorkers:
		target, reason = cfg.MaxWorkers, "ceiling"
	default:
		pressure := obs.Pressure()
		// Track the shrink-stability window regardless of what is decided:
		// the moment the load rises above the scale-down threshold it closes.
		if pressure >= cfg.ScaleDownPressure {
			st.Low = 0
		} else if st.Low == 0 {
			st.Low = 1
		}
		canGrow := w < cfg.MaxWorkers && p.cd.GrowReady(st)
		switch {
		case canGrow && pressure > cfg.ScaleUpPressure:
			// Target enough workers to bring the load back under the
			// threshold, bounded by MaxStep and the ceiling.
			want := int(math.Ceil(float64(obs.Jobs()) / cfg.ScaleUpPressure))
			if want <= w {
				want = w + 1
			}
			if want > w+cfg.MaxStep {
				want = w + cfg.MaxStep
			}
			if want > cfg.MaxWorkers {
				want = cfg.MaxWorkers
			}
			target, reason = want, "backlog"
			st.SinceUp = 0
		// Deadline pressure: when the estimated backlog, spread over the
		// current pool, cannot complete inside the earliest queued job's
		// remaining slack, waiting for the pressure threshold would
		// guarantee deadline misses.
		case canGrow && obs.SlackSeconds > 0 && obs.BacklogETASeconds/float64(w) > obs.SlackSeconds:
			target, reason = w+1, "deadline"
			st.SinceUp = 0
		// Shrink one worker at a time, only after the load has been below
		// the scale-down threshold for the full stability window and both
		// cooldowns have elapsed.
		case w > cfg.MinWorkers && st.Low > p.stable && p.cd.ShrinkReady(st):
			target, reason = w-1, "idle"
			st.SinceDown = 0
			// Restart the stability window so the next shrink waits again.
			st.Low = 1
		}
	}
	st = p.cd.Tick(st)
	if st.Low > 0 {
		st.Low = satInc(st.Low, p.stable+1)
	}
	return st, target, reason
}

// shedStableTicks is how many consecutive ticks the planner's target must
// sit below the pool before Hybrid's release path may shed a worker: long
// enough that one noisy interval cannot flap the pool, short enough that
// surplus capacity is released well before the reactive idle path — which
// must wait for the pressure gauge to fall and stay below its threshold —
// would notice.
const shedStableTicks = 2

// Hybrid overlays the feed-forward planner target carried in Obs.Plan on
// the reactive policy. Upward it applies the MAXIMUM of the reactive target
// and the plan — feed-forward provisioning can only ever add capacity, and
// a plan above a reactive shrink overrides the shrink ("forecast": the
// demand is coming back, so releasing now would thrash). Downward, when the
// reactive policy holds and the plan has sat persistently below the pool
// with the queue no deeper than the pool itself, one worker per tick is
// released ("forecast-idle") — the forecast knows the demand is gone before
// the reactive pressure gauge, which hovers at its threshold on a
// right-sized pool, manages to detect idleness. With no plan (0) it is the
// reactive policy exactly.
type Hybrid struct {
	*Reactive
}

// NewHybrid builds the overlay over a reactive policy of the given config.
func NewHybrid(cfg Config, tick time.Duration) (Hybrid, error) {
	r, err := NewReactive(cfg, tick)
	return Hybrid{r}, err
}

// Name implements Policy.
func (h Hybrid) Name() string { return "hybrid" }

// Step implements Policy.
func (h Hybrid) Step(st State, obs Obs) (State, int, string) {
	cfg, w := h.cfg, obs.Workers
	plan := obs.Plan
	if plan > cfg.MaxWorkers {
		plan = cfg.MaxWorkers
	}
	// The release path keeps a one-worker cushion above the plan: shedding
	// all the way down to it would strip the slack that absorbs the first
	// interval of the next burst.
	shed := int64(0)
	if plan > 0 && plan < w-1 {
		shed = satInc(st.Shed, shedStableTicks)
	}
	next, target, reason := h.Reactive.Step(st, obs)
	// Forecast grows obey MaxStep per tick — the planner replaces the grow
	// *cooldown* (its persistence and horizon smoothing already damp
	// decision churn, and capacity ordered ahead of demand is the point),
	// but the per-decision step bound is a provisioning rate limit, not
	// damping, and bypassing it would let one plan slam a 1-worker pool to
	// the ceiling.
	if plan > w+cfg.MaxStep {
		plan = w + cfg.MaxStep
	}
	switch {
	case plan > target:
		target, reason = plan, "forecast"
	case shed >= shedStableTicks && reason == "" && w > cfg.MinWorkers && obs.Queued <= w:
		target, reason = w-1, "forecast-idle"
	}
	if reason != "" && reason != "forecast-idle" {
		// Any other decision — reactive grow/shrink or a forecast grow —
		// restarts the release path's persistence window, so a shed can
		// never land on the heels of a grow.
		shed = 0
	}
	next.Shed = shed
	return next, target, reason
}
