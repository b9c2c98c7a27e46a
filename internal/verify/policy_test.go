package verify

import (
	"reflect"
	"testing"
	"time"

	"disarcloud/internal/elastic"
	"disarcloud/internal/loadgen"
)

// boundaryRequest is a reactive request whose cooldowns are round numbers
// of its 20ms tick: grow cooldown 3 ticks, shrink cooldown and stability
// window 5 ticks.
func boundaryRequest() Request {
	return Request{
		Policy:              PolicyReactive,
		MinWorkers:          2,
		MaxWorkers:          12,
		ScaleUpPressure:     1.5,
		ScaleDownPressure:   0.5,
		ScaleUpCooldownMS:   60,
		ScaleDownCooldownMS: 100,
		ShrinkStableForMS:   100,
		MaxStep:             3,
		TickMS:              20,
		MeanRuntimeMS:       50,
		Trace:               loadgen.Spec{Kind: loadgen.Bursty, Intervals: 64, Seed: 1, BaseRate: 1, PeakRate: 4},
		SLA:                 SLA{QueueBound: 32, HorizonTicks: 10, MaxProbability: 1},
	}
}

// walkPolicy steps the policy the checker would enumerate for the request
// from Init through a sequence of jobs-in-system observations, applying
// each target, and returns the targets and reasons.
func walkPolicy(t *testing.T, req Request, start int, jobs []int) ([]int, []string) {
	t.Helper()
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	pol, err := req.withDefaults().buildPolicy()
	if err != nil {
		t.Fatal(err)
	}
	st, w := pol.Init(), start
	targets := make([]int, len(jobs))
	reasons := make([]string, len(jobs))
	for i, q := range jobs {
		st, targets[i], reasons[i] = pol.Step(st, elastic.Backlog(q, w))
		w = targets[i]
	}
	return targets, reasons
}

// The boundary table pins the chain's transition function — the one
// elastic.Policy.Step the daemon also runs, built at the request's tick —
// at the exact edges that matter: hysteresis band boundaries, cooldown
// expiry ticks, MaxStep clamping, and out-of-bounds pool corrections.
func TestReactivePolicyBoundaryTable(t *testing.T) {
	const b, idle, floor, ceiling = "backlog", "idle", "floor", "ceiling"
	cases := []struct {
		name    string
		start   int
		jobs    []int
		targets []int
		reasons []string
	}{
		// pressure == ScaleUpPressure exactly must hold (strict >); one job
		// more must grow.
		{"hysteresis upper edge", 4, []int{6, 6, 7}, []int{4, 4, 5}, []string{"", "", b}},
		// pressure == ScaleDownPressure exactly keeps the low window shut
		// (strict <); below it must open, and the shrink fires only after
		// the stability window AND both cooldowns.
		{"hysteresis lower edge", 4,
			[]int{2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1},
			[]int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3, 3},
			[]string{"", "", "", "", "", "", "", "", "", "", "", "", "", idle, ""}},
		// A huge backlog wants far more than MaxStep allows.
		{"MaxStep clamp", 4, []int{40, 40, 40, 40, 40, 40, 40}, []int{7, 7, 7, 10, 10, 10, 12},
			[]string{b, "", "", b, "", "", b}},
		// Growth at the ceiling, shrink at the floor: both must hold.
		{"bounds saturate", 12,
			[]int{40, 40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			[]int{12, 12, 12, 12, 12, 12, 12, 11, 11, 11, 11, 11, 10, 10, 10, 10},
			[]string{"", "", "", "", "", "", "", idle, "", "", "", "", idle, "", "", ""}},
		// Out-of-bounds pools are corrected immediately, cooldowns ignored.
		{"floor correction", 1, []int{0, 0, 0}, []int{2, 2, 2}, []string{floor, "", ""}},
		{"ceiling correction", 15, []int{0, 0, 0}, []int{12, 12, 12}, []string{ceiling, "", ""}},
		// Cooldown expiry: grow, hold under cooldown for exactly its tick
		// count, then grow again the first admissible tick.
		{"cooldown expiry ticks", 4, []int{8, 9, 9, 9, 14, 14, 14, 14}, []int{6, 6, 6, 6, 9, 9, 9, 10},
			[]string{b, "", "", "", b, "", "", b}},
		// Low window interrupted right before the shrink would fire.
		{"shrink window reset", 6,
			[]int{1, 1, 1, 1, 9, 1, 1, 1, 1, 1, 1, 1},
			[]int{6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 5, 5},
			[]string{"", "", "", "", "", "", "", "", "", "", idle, ""}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			targets, reasons := walkPolicy(t, boundaryRequest(), tc.start, tc.jobs)
			if !reflect.DeepEqual(targets, tc.targets) || !reflect.DeepEqual(reasons, tc.reasons) {
				t.Fatalf("jobs %v from %d workers:\n got  %v %q\n want %v %q",
					tc.jobs, tc.start, targets, reasons, tc.targets, tc.reasons)
			}
		})
	}
}

// A walk that starts outside the configured bounds (config shrank
// underneath a running pool) is corrected at once, and the correction
// stamps no cooldown: the grow right behind a floor correction fires.
func TestReactivePolicyStartsOutOfBounds(t *testing.T) {
	req := boundaryRequest()
	req.MinWorkers, req.MaxWorkers, req.TickMS = 3, 6, 50
	req.ScaleUpPressure, req.ScaleDownPressure, req.MaxStep = 0, 0, 0
	req.ScaleUpCooldownMS, req.ScaleDownCooldownMS, req.ShrinkStableForMS = 0, 0, 0
	jobs := []int{20, 20, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}

	targets, reasons := walkPolicy(t, req, 9, jobs)
	wantT := []int{6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 5}
	wantR := []string{"ceiling", "", "", "", "", "", "", "", "", "", "", "", "", "idle"}
	if !reflect.DeepEqual(targets, wantT) || !reflect.DeepEqual(reasons, wantR) {
		t.Fatalf("from above the ceiling: got %v %q, want %v %q", targets, reasons, wantT, wantR)
	}
	targets, reasons = walkPolicy(t, req, 1, jobs)
	wantT = []int{3, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 5}
	wantR = []string{"floor", "backlog", "", "", "", "", "", "", "", "", "", "", "", "idle"}
	if !reflect.DeepEqual(targets, wantT) || !reflect.DeepEqual(reasons, wantR) {
		t.Fatalf("from below the floor: got %v %q, want %v %q", targets, reasons, wantT, wantR)
	}
}

func TestTicksOfRounding(t *testing.T) {
	cases := []struct {
		d, tick time.Duration
		want    int64
	}{
		{0, 20 * time.Millisecond, 0},
		{20 * time.Millisecond, 20 * time.Millisecond, 1},
		{50 * time.Millisecond, 20 * time.Millisecond, 3},
		{60 * time.Millisecond, 20 * time.Millisecond, 3},
		{61 * time.Millisecond, 20 * time.Millisecond, 4},
	}
	for _, tc := range cases {
		if got := elastic.TicksOf(tc.d, tc.tick); got != tc.want {
			t.Errorf("TicksOf(%v, %v) = %d, want %d", tc.d, tc.tick, got, tc.want)
		}
	}
}

func TestNewPolicyRejectsBadInputs(t *testing.T) {
	mutate := func(f func(*Request)) Request {
		r := boundaryRequest()
		f(&r)
		return r
	}
	for name, req := range map[string]Request{
		"inverted bounds":        mutate(func(r *Request) { r.MinWorkers, r.MaxWorkers = 5, 2 }),
		"zero tick":              mutate(func(r *Request) { r.TickMS = 0 }),
		"hybrid inverted bounds": mutate(func(r *Request) { r.Policy = PolicyHybrid; r.MinWorkers, r.MaxWorkers = 5, 2 }),
		"unknown family":         mutate(func(r *Request) { r.Policy = "psychic" }),
	} {
		if _, err := req.buildPolicy(); err == nil {
			t.Errorf("%s: buildPolicy accepted the request", name)
		}
	}
	hyb := mutate(func(r *Request) { r.Policy = PolicyHybrid; r.Headroom = 1.2 })
	if pol, err := hyb.buildPolicy(); err != nil || pol.Name() != PolicyHybrid {
		t.Errorf("rejected a valid hybrid policy: %v", err)
	}
}
