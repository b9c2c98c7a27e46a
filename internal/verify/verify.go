package verify

import (
	"errors"
	"fmt"
	"math"
	"time"

	"disarcloud/internal/elastic"
	"disarcloud/internal/forecast"
	"disarcloud/internal/loadgen"
	"disarcloud/internal/rl"
)

// SLA is a bound the verified policy must meet: the probability that the
// jobs-in-system count reaches QueueBound within HorizonTicks control
// ticks must not exceed MaxProbability.
type SLA struct {
	QueueBound     int     `json:"queue_bound"`
	HorizonTicks   int     `json:"horizon_ticks"`
	MaxProbability float64 `json:"max_probability"`
}

// Validate reports whether the SLA is well-formed.
func (s SLA) Validate() error {
	if s.QueueBound < 1 {
		return errors.New("verify: SLA queue bound must be at least 1")
	}
	if s.HorizonTicks < 1 || s.HorizonTicks > maxHorizonTicks {
		return fmt.Errorf("verify: SLA horizon %d outside [1, %d]", s.HorizonTicks, maxHorizonTicks)
	}
	if !(s.MaxProbability >= 0) || s.MaxProbability > 1 {
		return fmt.Errorf("verify: SLA probability bound %g outside [0,1]", s.MaxProbability)
	}
	return nil
}

// Request is one verification job, JSON-decodable for the cmd/disard
// -check path. Duration knobs are in milliseconds (the natural unit at
// control-loop scale); zero elastic fields take the elastic defaults,
// exactly as the live service would run them.
type Request struct {
	// Policy selects the family: "reactive" (elastic.Reactive), "hybrid"
	// (elastic.Hybrid: reactive + feed-forward forecast planner), or
	// "learned" (a trained Q-table, internal/rl).
	Policy string `json:"policy"`

	// Threshold-policy configuration; zeros take elastic defaults.
	MinWorkers          int     `json:"min_workers"`
	MaxWorkers          int     `json:"max_workers"`
	ScaleUpPressure     float64 `json:"scale_up_pressure,omitempty"`
	ScaleDownPressure   float64 `json:"scale_down_pressure,omitempty"`
	ScaleUpCooldownMS   int     `json:"scale_up_cooldown_ms,omitempty"`
	ScaleDownCooldownMS int     `json:"scale_down_cooldown_ms,omitempty"`
	ShrinkStableForMS   int     `json:"shrink_stable_for_ms,omitempty"`
	MaxStep             int     `json:"max_step,omitempty"`

	// Headroom is the hybrid planner's multiplier (zero takes the forecast
	// default); ignored for the reactive policy.
	Headroom float64 `json:"headroom,omitempty"`

	// QTable is the learned policy's serialized artifact path (Check loads
	// it); Table is the already-loaded form and takes precedence. The
	// learned policy's pool bounds, cooldowns and discretization all come
	// from the table's own spec — the elastic fields above are rejected
	// for it.
	QTable string    `json:"qtable,omitempty"`
	Table  *rl.Table `json:"-"`

	// TickMS is the control period; one trace interval is one tick.
	TickMS int `json:"tick_ms"`
	// MeanRuntimeMS is the mean per-job worker occupancy.
	MeanRuntimeMS float64 `json:"mean_runtime_ms"`
	// InitialWorkers defaults to the (defaulted) MinWorkers.
	InitialWorkers int `json:"initial_workers,omitempty"`
	// MaxQueue truncates the jobs-in-system count; defaults to four times
	// the SLA queue bound, with a floor of 32.
	MaxQueue int `json:"max_queue,omitempty"`
	// PhaseLevels is the arrival discretization grid (default 6).
	PhaseLevels int `json:"phase_levels,omitempty"`

	// Trace selects the arrival scenario.
	Trace loadgen.Spec `json:"trace"`
	SLA   SLA          `json:"sla"`
}

// Request bounds.
const (
	maxHorizonTicks = 100_000
	maxTickMS       = 60_000
	defaultLevels   = 6
)

// PolicyReactive, PolicyHybrid and PolicyLearned are the Request.Policy
// values.
const (
	PolicyReactive = "reactive"
	PolicyHybrid   = "hybrid"
	PolicyLearned  = "learned"
)

// elasticConfig assembles the threshold-policy configuration the request
// describes.
func (r Request) elasticConfig() elastic.Config {
	return elastic.Config{
		MinWorkers:        r.MinWorkers,
		MaxWorkers:        r.MaxWorkers,
		ScaleUpPressure:   r.ScaleUpPressure,
		ScaleDownPressure: r.ScaleDownPressure,
		ScaleUpCooldown:   time.Duration(r.ScaleUpCooldownMS) * time.Millisecond,
		ScaleDownCooldown: time.Duration(r.ScaleDownCooldownMS) * time.Millisecond,
		ShrinkStableFor:   time.Duration(r.ShrinkStableForMS) * time.Millisecond,
		MaxStep:           r.MaxStep,
	}
}

// withDefaults resolves the request's zero knobs.
func (r Request) withDefaults() Request {
	if r.PhaseLevels == 0 {
		r.PhaseLevels = defaultLevels
	}
	if r.MaxQueue == 0 {
		r.MaxQueue = 4 * r.SLA.QueueBound
		if r.MaxQueue < 32 {
			r.MaxQueue = 32
		}
	}
	if r.InitialWorkers == 0 {
		if r.Policy == PolicyLearned {
			if r.Table != nil {
				r.InitialWorkers = r.Table.Spec.MinWorkers
			}
		} else {
			r.InitialWorkers = r.elasticConfig().WithDefaults().MinWorkers
		}
	}
	return r
}

// Validate reports whether the (defaulted) request is admissible.
func (r Request) Validate() error {
	d := r.withDefaults()
	switch d.Policy {
	case PolicyReactive, PolicyHybrid:
		if d.QTable != "" || d.Table != nil {
			return fmt.Errorf("verify: a Q-table only drives the %q policy", PolicyLearned)
		}
		if err := d.elasticConfig().Validate(); err != nil {
			return err
		}
		if d.ScaleUpCooldownMS < 0 || d.ScaleDownCooldownMS < 0 || d.ShrinkStableForMS < 0 {
			return errors.New("verify: cooldown milliseconds must be non-negative")
		}
	case PolicyLearned:
		if d.Table == nil {
			return errors.New("verify: the learned policy needs a Q-table (set the qtable path or attach a loaded table)")
		}
		if err := d.Table.Validate(); err != nil {
			return err
		}
		if d.MinWorkers != 0 || d.MaxWorkers != 0 || d.ScaleUpPressure != 0 || d.ScaleDownPressure != 0 ||
			d.ScaleUpCooldownMS != 0 || d.ScaleDownCooldownMS != 0 || d.ShrinkStableForMS != 0 ||
			d.MaxStep != 0 || d.Headroom != 0 {
			return errors.New("verify: the learned policy takes its bounds and cooldowns from the Q-table spec; leave the elastic fields zero")
		}
		// The artifact is a decision function trained at one control scale;
		// verifying it at another would bound a policy nobody runs.
		if d.TickMS != d.Table.Spec.TickMS || d.MeanRuntimeMS != d.Table.Spec.MeanRuntimeMS {
			return fmt.Errorf("verify: request runs %dms ticks with %gms jobs, the Q-table was trained at %dms/%gms",
				d.TickMS, d.MeanRuntimeMS, d.Table.Spec.TickMS, d.Table.Spec.MeanRuntimeMS)
		}
	default:
		return fmt.Errorf("verify: unknown policy %q (want %q, %q or %q)", d.Policy, PolicyReactive, PolicyHybrid, PolicyLearned)
	}
	if d.TickMS < 1 || d.TickMS > maxTickMS {
		return fmt.Errorf("verify: tick %dms outside [1, %d]", d.TickMS, maxTickMS)
	}
	if !(d.MeanRuntimeMS > 0) || math.IsInf(d.MeanRuntimeMS, 0) || d.MeanRuntimeMS > 1e9 {
		return fmt.Errorf("verify: mean runtime %gms must be positive, finite, and sane", d.MeanRuntimeMS)
	}
	if !(d.Headroom >= 0) || math.IsInf(d.Headroom, 0) || d.Headroom > 100 {
		return fmt.Errorf("verify: headroom %g outside [0, 100]", d.Headroom)
	}
	if d.InitialWorkers < 1 || d.InitialWorkers > maxModelWorkers {
		return fmt.Errorf("verify: initial workers %d outside [1, %d]", d.InitialWorkers, maxModelWorkers)
	}
	if d.MaxQueue < 1 || d.MaxQueue > maxModelQueue {
		return fmt.Errorf("verify: max queue %d outside [1, %d]", d.MaxQueue, maxModelQueue)
	}
	if d.PhaseLevels < 1 || d.PhaseLevels > loadgen.MaxPhaseLevels {
		return fmt.Errorf("verify: phase levels %d outside [1, %d]", d.PhaseLevels, loadgen.MaxPhaseLevels)
	}
	if err := d.Trace.Validate(); err != nil {
		return err
	}
	if err := d.SLA.Validate(); err != nil {
		return err
	}
	if d.SLA.QueueBound > d.MaxQueue {
		return fmt.Errorf("verify: SLA queue bound %d exceeds max queue %d", d.SLA.QueueBound, d.MaxQueue)
	}
	return nil
}

// tick is the control period.
func (r Request) tick() time.Duration { return time.Duration(r.TickMS) * time.Millisecond }

// buildPolicy constructs the requested policy over the defaulted request:
// the very elastic.Policy the service would step, at the request's tick.
func (r Request) buildPolicy() (elastic.Policy, error) {
	switch r.Policy {
	case PolicyReactive:
		return elastic.NewReactive(r.elasticConfig(), r.tick())
	case PolicyHybrid:
		return elastic.NewHybrid(r.elasticConfig(), r.tick())
	case PolicyLearned:
		return r.Table, nil
	default:
		return nil, fmt.Errorf("verify: unknown policy %q", r.Policy)
	}
}

// plans is the planner target the hybrid policy observes at each of the
// given true arrival rates (jobs per tick) — the perfect-forecast
// idealization: the planner reads the rate itself instead of a fitted
// model's extrapolation. Nil for the other policies, which read no plan.
func (r Request) plans(rates []float64) []int {
	if r.Policy != PolicyHybrid {
		return nil
	}
	return PerfectPlans(rates, r.Headroom, r.tick(), r.MeanRuntimeMS/1000)
}

// PerfectPlans applies the feed-forward planner (headroom below 1 selects
// the forecast default, as in the live subsystem) to true per-tick arrival
// rates.
func PerfectPlans(ratesPerTick []float64, headroom float64, tick time.Duration, meanRuntimeSeconds float64) []int {
	planner := forecast.NewPlanner(headroom)
	plans := make([]int, len(ratesPerTick))
	for i, rate := range ratesPerTick {
		plans[i] = planner.Target(rate/tick.Seconds(), meanRuntimeSeconds)
	}
	return plans
}

// model assembles the ServiceModel for the defaulted request and a
// pre-built arrival model.
func (r Request) model(am ArrivalModel) (ServiceModel, error) {
	pol, err := r.buildPolicy()
	if err != nil {
		return ServiceModel{}, err
	}
	return ServiceModel{
		Policy:             pol,
		Arrivals:           am,
		Plans:              r.plans(am.Rates),
		Tick:               r.tick(),
		MeanRuntimeSeconds: r.MeanRuntimeMS / 1000,
		InitialWorkers:     r.InitialWorkers,
		MaxQueue:           r.MaxQueue,
	}, nil
}

// Report is the result of one verification: the resolved request, the
// exact properties, and the SLA verdict.
type Report struct {
	Request    Request    `json:"request"`
	Policy     string     `json:"policy"`
	Arrivals   string     `json:"arrival_model"`
	Properties Properties `json:"properties"`
	Pass       bool       `json:"pass"`
}

// Check runs one verification end to end: validate, derive the arrival
// model from the trace spec, build the composed chain, compute the
// properties, and compare against the SLA. The error path is for malformed
// requests or infeasible models; an SLA violation is a successful check
// with Pass=false.
func Check(req Request) (Report, error) {
	if req.Policy == PolicyLearned && req.Table == nil && req.QTable != "" {
		t, err := rl.LoadTableFile(req.QTable)
		if err != nil {
			return Report{}, err
		}
		req.Table = t
	}
	if err := req.Validate(); err != nil {
		return Report{}, err
	}
	d := req.withDefaults()
	am, err := ModelFromSpec(d.Trace, d.PhaseLevels)
	if err != nil {
		return Report{}, err
	}
	return checkWithModel(d, am)
}

// checkWithModel is Check past arrival-model derivation — the sweeper
// re-enters here so a whole configuration grid shares one discretization.
func checkWithModel(d Request, am ArrivalModel) (Report, error) {
	sm, err := d.model(am)
	if err != nil {
		return Report{}, err
	}
	mdp, err := Build(sm)
	if err != nil {
		return Report{}, err
	}
	props, err := mdp.Analyze(d.SLA.QueueBound, d.SLA.HorizonTicks)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Request:    d,
		Policy:     sm.Policy.Name(),
		Arrivals:   am.Source,
		Properties: props,
		Pass:       props.PViolation <= d.SLA.MaxProbability,
	}, nil
}
