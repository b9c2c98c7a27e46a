package verify

import (
	"math"
	"testing"

	"disarcloud/internal/loadgen"
	"disarcloud/internal/rl"
)

// learnedTestTable trains a small table the verify tests share; the trace
// families are short so training stays in the milliseconds.
func learnedTestTable(t testing.TB) *rl.Table {
	t.Helper()
	spec := rl.DefaultSpec()
	spec.Episodes = 60
	spec.Traces = []loadgen.Spec{
		{Kind: loadgen.Diurnal, Intervals: 64, Seed: 1, BaseRate: 0.3, PeakRate: 1.2, Period: 16},
		{Kind: loadgen.Bursty, Intervals: 64, Seed: 2, BaseRate: 0.3, PeakRate: 1.2},
	}
	tbl, err := rl.Train(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// learnedRequest is a fast learned-policy composition: the control scale
// comes from the table spec, the elastic fields stay zero.
func learnedRequest(tbl *rl.Table) Request {
	return Request{
		Policy:        PolicyLearned,
		Table:         tbl,
		TickMS:        tbl.Spec.TickMS,
		MeanRuntimeMS: tbl.Spec.MeanRuntimeMS,
		MaxQueue:      tbl.Spec.MaxQueue,
		Trace:         loadgen.Spec{Kind: loadgen.Diurnal, Intervals: 128, Seed: 1, BaseRate: 0.3, PeakRate: 1.2, Period: 32},
		SLA:           SLA{QueueBound: 32, HorizonTicks: 60, MaxProbability: 0.9},
	}
}

// TestLearnedCheckAndReplay: a learned request model-checks end to end, the
// probability is bit-deterministic, and the empirical replay of the same
// table stays consistent with the exhaustive bound.
func TestLearnedCheckAndReplay(t *testing.T) {
	req := learnedRequest(learnedTestTable(t))
	a, err := Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Policy != PolicyLearned {
		t.Fatalf("report policy %q", a.Policy)
	}
	if a.Properties.PViolation < 0 || a.Properties.PViolation > 1 {
		t.Fatalf("PViolation %g outside [0,1]", a.Properties.PViolation)
	}
	if a.Properties.ExpectedWorkerSeconds <= 0 {
		t.Fatalf("degenerate cost: %+v", a.Properties)
	}
	b, err := Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Properties.PViolation) != math.Float64bits(b.Properties.PViolation) {
		t.Fatal("learned PViolation differs between identical runs")
	}

	stats, err := Replay(req, 200)
	if err != nil {
		t.Fatal(err)
	}
	// The replay steps the table under sampled arrivals; its frequency must
	// not wildly contradict the exhaustive bound.
	if diff := math.Abs(stats.Frequency - a.Properties.PViolation); diff > 0.15 {
		t.Fatalf("replay frequency %g vs model PViolation %g (diff %g)",
			stats.Frequency, a.Properties.PViolation, diff)
	}
}

// TestLearnedRequestValidation: the learned-specific rejections fire.
func TestLearnedRequestValidation(t *testing.T) {
	tbl := learnedTestTable(t)
	base := learnedRequest(tbl)
	if err := base.Validate(); err != nil {
		t.Fatalf("reference learned request rejected: %v", err)
	}
	mutate := func(f func(*Request)) Request {
		r := learnedRequest(tbl)
		f(&r)
		return r
	}
	cases := []struct {
		name string
		req  Request
	}{
		{"no table", mutate(func(r *Request) { r.Table = nil })},
		{"elastic bounds set", mutate(func(r *Request) { r.MinWorkers = 2; r.MaxWorkers = 16 })},
		{"pressure knobs set", mutate(func(r *Request) { r.ScaleUpPressure = 2 })},
		{"cooldown set", mutate(func(r *Request) { r.ScaleUpCooldownMS = 100 })},
		{"headroom set", mutate(func(r *Request) { r.Headroom = 1.3 })},
		{"max step set", mutate(func(r *Request) { r.MaxStep = 4 })},
		{"tick mismatch", mutate(func(r *Request) { r.TickMS = 250 })},
		{"runtime mismatch", mutate(func(r *Request) { r.MeanRuntimeMS = 500 })},
		{"qtable on reactive", mutate(func(r *Request) {
			r.Policy = PolicyReactive
			r.MinWorkers, r.MaxWorkers = 2, 16
		})},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the request", tc.name)
		}
	}
	// A learned request defaults its initial pool to the table's floor.
	if d := base.withDefaults(); d.InitialWorkers != tbl.Spec.MinWorkers {
		t.Fatalf("InitialWorkers defaulted to %d, want the table floor %d", d.InitialWorkers, tbl.Spec.MinWorkers)
	}
	// Check loads the artifact from a path; a missing file is a clean error.
	if _, err := Check(Request{Policy: PolicyLearned, QTable: "does/not/exist.json"}); err == nil {
		t.Fatal("Check accepted a missing qtable path")
	}
}
