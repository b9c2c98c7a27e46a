package core

import (
	"testing"
	"time"

	"disarcloud/internal/elastic"
	"disarcloud/internal/forecast"
	"disarcloud/internal/loadgen"
	"disarcloud/internal/rl"
)

// coreTestTable returns a zero-valued table over a 2..16 pool: argmax of an
// all-zero row is the first action, step -1, so the greedy policy shrinks
// whenever the cooldowns allow — a deterministic behavior the control-loop
// tests can pin without training.
func coreTestTable(t *testing.T) *rl.Table {
	t.Helper()
	spec := rl.DefaultSpec()
	spec.Traces = []loadgen.Spec{{Kind: loadgen.Diurnal, Intervals: 16, Seed: 1, BaseRate: 0.3, PeakRate: 1.2, Period: 8}}
	tbl, err := rl.NewTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// stubPolicy is a minimal WithScalingPolicy implementation for conflict
// tests.
type stubPolicy struct{}

func (stubPolicy) Name() string        { return "stub" }
func (stubPolicy) Init() elastic.State { return elastic.State{} }
func (stubPolicy) Step(st elastic.State, obs elastic.Obs) (elastic.State, int, string) {
	return st, obs.Workers, ""
}

// TestWithLearnedPolicyValidation: the wiring constraints hold — the learned
// policy needs the control loop, tolerates no second decision layer, and its
// table must fit inside the elastic bounds.
func TestWithLearnedPolicyValidation(t *testing.T) {
	tbl := coreTestTable(t)
	d, err := NewDeployer(11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(d, WithLearnedPolicy(tbl)); err == nil {
		t.Fatal("NewService accepted WithLearnedPolicy without WithElastic")
	}
	if _, err := NewService(d,
		WithElastic(elastic.Config{MinWorkers: 2, MaxWorkers: 16}),
		WithForecast(forecast.Config{}),
		WithLearnedPolicy(tbl)); err == nil {
		t.Fatal("NewService accepted WithLearnedPolicy alongside WithForecast")
	}
	if _, err := NewService(d,
		WithElastic(elastic.Config{MinWorkers: 2, MaxWorkers: 16}),
		WithScalingPolicy(stubPolicy{}),
		WithLearnedPolicy(tbl)); err == nil {
		t.Fatal("NewService accepted WithLearnedPolicy alongside WithScalingPolicy")
	}
	// The table targets 2..16; an 2..8 elastic config cannot host it.
	if _, err := NewService(d,
		WithElastic(elastic.Config{MinWorkers: 2, MaxWorkers: 8}),
		WithLearnedPolicy(tbl)); err == nil {
		t.Fatal("NewService accepted a Q-table wider than the elastic bounds")
	}

	svc, err := NewService(d,
		WithElastic(elastic.Config{MinWorkers: 2, MaxWorkers: 16}),
		WithLearnedPolicy(tbl))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	st := svc.AutoscalerStatus()
	if st.Policy != "learned" {
		t.Fatalf("policy %q, want learned", st.Policy)
	}
	if st.PolicyParams["alpha"] != tbl.Spec.Alpha || st.PolicyParams["states"] != float64(tbl.Spec.NumStates()) {
		t.Fatalf("learned PolicyParams missing hyperparameters: %v", st.PolicyParams)
	}
}

// TestLearnedPolicyDrivesControlLoop: on injected ticks the learned policy's
// decisions flow through the control loop with learned-* reasons — the
// zero table shrinks toward the floor, and floor enforcement is immediate.
func TestLearnedPolicyDrivesControlLoop(t *testing.T) {
	tbl := coreTestTable(t)
	d, err := NewDeployer(11)
	if err != nil {
		t.Fatal(err)
	}
	ticks := make(chan time.Time)
	svc, err := NewService(d,
		WithWorkers(4),
		WithElastic(elastic.Config{MinWorkers: 2, MaxWorkers: 16}),
		WithControlTicker(manualTicker(ticks)),
		WithLearnedPolicy(tbl))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	events, unsub := svc.AutoscalerEvents(8)
	defer unsub()

	wait := func(wantReason string, wantFrom, wantTarget int) {
		t.Helper()
		select {
		case ev := <-events:
			if ev.Reason != wantReason || ev.From != wantFrom || ev.Target != wantTarget {
				t.Fatalf("decision %+v, want %s %d->%d", ev, wantReason, wantFrom, wantTarget)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no %s decision after the injected tick", wantReason)
		}
	}

	// The zero table's greedy action is the shrink step: 4 -> 3 -> 2, one
	// worker per tick, then it holds at the floor.
	ticks <- time.Unix(5000, 0)
	wait("learned-shrink", 4, 3)
	ticks <- time.Unix(5001, 0)
	wait("learned-shrink", 3, 2)

	// Below the table floor the correction is immediate and labeled so.
	if err := svc.Resize(1); err != nil {
		t.Fatal(err)
	}
	ticks <- time.Unix(5002, 0)
	wait("learned-floor", 1, 2)

	if got := svc.Workers(); got != 2 {
		t.Fatalf("workers settled at %d, want the floor 2", got)
	}
}

// TestPolicyParamsAllPolicies: every built-in policy surfaces its
// hyperparameters through AutoscalerStatus.
func TestPolicyParamsAllPolicies(t *testing.T) {
	d, err := NewDeployer(11)
	if err != nil {
		t.Fatal(err)
	}

	reactive, err := NewService(d, WithElastic(elastic.Config{MinWorkers: 2, MaxWorkers: 8}))
	if err != nil {
		t.Fatal(err)
	}
	defer reactive.Close()
	rp := reactive.AutoscalerStatus().PolicyParams
	if rp["min_workers"] != 2 || rp["max_workers"] != 8 {
		t.Fatalf("reactive params %v missing controller bounds", rp)
	}
	if _, ok := rp["scale_up_pressure"]; !ok {
		t.Fatalf("reactive params %v missing thresholds", rp)
	}
	if _, ok := rp["headroom"]; ok {
		t.Fatal("reactive params carry a headroom")
	}

	hybrid, err := NewService(d,
		WithElastic(elastic.Config{MinWorkers: 2, MaxWorkers: 8}),
		WithForecast(forecast.Config{Headroom: 1.3}))
	if err != nil {
		t.Fatal(err)
	}
	defer hybrid.Close()
	hp := hybrid.AutoscalerStatus().PolicyParams
	if hp["headroom"] != 1.3 {
		t.Fatalf("hybrid params %v, want headroom 1.3", hp)
	}

	// A fixed pool has no policy and no params.
	fixed, err := NewService(d, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if st := fixed.AutoscalerStatus(); st.Enabled || st.PolicyParams != nil {
		t.Fatalf("fixed pool reports a policy: %+v", st)
	}
}
