package elastic

import (
	"math"
	"time"
)

// Signals is one timestamped observation of the service.
type Signals struct {
	// Now is the observation time; the policy's time counters are advanced
	// by the wall clock elapsed between observations.
	Now time.Time
	Obs
}

// Decision is one capacity change, kept as the autoscaler's telemetry
// record: every decision carries the signals it was taken on.
type Decision struct {
	At     time.Time
	From   int // workers before
	Target int // workers decided
	// Reason is the policy's trigger (see Reactive, Hybrid and
	// internal/rl's Table for the vocabularies).
	Reason  string
	Signals Signals
}

// Controller is the wall-clock adapter that drives a Policy from
// timestamped observations, and the only place a time.Time meets a policy:
// it owns the policy's State and keeps its time counters true to the clock,
// so cooldowns and the shrink-stability window hold as elapsed >= duration
// however irregularly the observations arrive. It is not safe for
// concurrent use; the owning service serialises Decide calls.
type Controller struct {
	pol  Policy
	unit time.Duration
	st   State
	last time.Time
}

// NewController drives pol from its initial state. unit is the wall-clock
// length of one policy tick: a policy built with NewReactive(cfg, unit)
// compares its cooldowns against real elapsed time, exactly at
// unit = time.Nanosecond. Zero means the policy counts observations as its
// ticks, whenever they arrive.
func NewController(pol Policy, unit time.Duration) *Controller {
	return &Controller{pol: pol, unit: unit, st: pol.Init()}
}

// Policy returns the policy being driven.
func (c *Controller) Policy() Policy { return c.pol }

// Decide evaluates one observation and returns the capacity change to apply,
// if any. The second return is false when the policy holds.
func (c *Controller) Decide(sig Signals) (Decision, bool) {
	if c.unit > 0 && !c.last.IsZero() {
		// Step itself advances the counters one tick; the rest of the
		// elapsed time is added here, before the next decision reads them.
		c.st = advance(c.st, int64(sig.Now.Sub(c.last)/c.unit)-1)
	}
	c.last = sig.Now
	var target int
	var reason string
	c.st, target, reason = c.pol.Step(c.st, sig.Obs)
	if reason == "" {
		return Decision{}, false
	}
	return Decision{At: sig.Now, From: sig.Workers, Target: target, Reason: reason, Signals: sig}, true
}

// advance adds ticks to the state's time counters. It knows no caps — the
// policy's next Step saturates them again — so it only guards overflow.
func advance(st State, ticks int64) State {
	if ticks <= 0 {
		return st
	}
	add := func(v int64) int64 {
		if v > math.MaxInt64-ticks {
			return math.MaxInt64
		}
		return v + ticks
	}
	st.SinceUp, st.SinceDown = add(st.SinceUp), add(st.SinceDown)
	if st.Low > 0 {
		st.Low = add(st.Low)
	}
	return st
}
