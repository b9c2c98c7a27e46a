package verify

import (
	"math"
	"testing"

	"disarcloud/internal/loadgen"
)

// The cross-validation suite is the checker's own oracle: the MDP's
// predicted violation probability must describe the system it claims to
// verify, so each trace family compares the exact PViolation against the
// empirical violation frequency over hundreds of seeded loadgen replays of
// the same policy through the same queue kernel — sampled arrivals and
// completions against their enumerated distributions. The policy and the
// queue recursion are shared code, so what this cross-checks is the rest:
// the arrival discretization, the product-chain build and value iteration.
//
// Every model truncates the queue at the SLA bound itself: the tightest
// truncation that cannot mask a violation, and — a replay stops at its
// first violation — one the replays never feel.
//
// Tolerances are stated per family and derive from two error sources:
// Monte-Carlo error of the replay estimate (sigma <= 0.5/sqrt(n), so
// ~0.032 at n=250), and discretization error (zero for Bursty, whose MMPP
// the model captures exactly; a stated bias for Diurnal, whose sinusoid is
// bucketed into phase levels). Everything is seeded, so a tolerance breach
// is a real regression, not flakiness.

func crossvalBase() Request {
	return Request{
		Policy:        PolicyReactive,
		MinWorkers:    4,
		MaxWorkers:    16,
		TickMS:        100,
		MeanRuntimeMS: 250,
		PhaseLevels:   4,
	}
}

func crossval(t *testing.T, req Request, replays int, tol float64) {
	t.Helper()
	rep, err := Check(req)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(req, replays)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s/%s K=%d: MDP P=%.4f over %d states; empirical %.4f over %d replays",
		req.Policy, req.Trace.Kind, req.SLA.QueueBound, rep.Properties.PViolation,
		rep.Properties.States, stats.Frequency, replays)
	if diff := math.Abs(rep.Properties.PViolation - stats.Frequency); diff > tol {
		t.Fatalf("MDP predicts P(queue >= %d within %d) = %.4f, empirical frequency %.4f: |diff| %.4f exceeds tolerance %.2f",
			req.SLA.QueueBound, req.SLA.HorizonTicks, rep.Properties.PViolation, stats.Frequency, diff, tol)
	}
}

// Bursty is a two-phase MMPP, which ModelFromSpec captures exactly: the
// only divergence budget is replay Monte-Carlo error. Two queue bounds,
// one in the frequently-violated regime and one in the tail.
func TestCrossValidationBurstyExact(t *testing.T) {
	req := crossvalBase()
	req.Trace = loadgen.Spec{Kind: loadgen.Bursty, Intervals: 256, Seed: 1, BaseRate: 1.5, PeakRate: 7}
	req.SLA = SLA{QueueBound: 24, HorizonTicks: 60, MaxProbability: 1}
	req.MaxQueue = 24
	crossval(t, req, 250, 0.08)

	req.SLA.QueueBound = 32
	req.MaxQueue = 32
	crossval(t, req, 250, 0.06)
}

// Diurnal is discretized into (level, branch) phases; the peak is smeared
// across its level bucket, so the model carries a stated small bias on top
// of Monte-Carlo error.
func TestCrossValidationDiurnalDiscretized(t *testing.T) {
	req := crossvalBase()
	req.Trace = loadgen.Spec{Kind: loadgen.Diurnal, Intervals: 256, Seed: 1, BaseRate: 1, PeakRate: 5, Period: 64}
	req.SLA = SLA{QueueBound: 28, HorizonTicks: 60, MaxProbability: 1}
	req.MaxQueue = 28
	crossval(t, req, 250, 0.05)
}

// The hybrid policy's chain — every phase's observation carrying the
// planner target for its true rate — must agree with replays carrying the
// planner target for the trace's true rate.
func TestCrossValidationHybridBursty(t *testing.T) {
	req := crossvalBase()
	req.Policy = PolicyHybrid
	req.Headroom = 1.3
	req.Trace = loadgen.Spec{Kind: loadgen.Bursty, Intervals: 256, Seed: 1, BaseRate: 1.5, PeakRate: 7}
	req.SLA = SLA{QueueBound: 24, HorizonTicks: 60, MaxProbability: 1}
	req.MaxQueue = 24
	crossval(t, req, 200, 0.08)
}
