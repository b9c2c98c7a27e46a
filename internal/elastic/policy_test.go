package elastic

import (
	"reflect"
	"testing"
	"time"

	"disarcloud/internal/finmath"
)

// walk steps a policy from Init through a sequence of jobs-in-system
// observations (plans optional), applying each target, and returns the
// targets and reasons.
func walk(p Policy, start int, jobs, plans []int) ([]int, []string) {
	st, w := p.Init(), start
	targets := make([]int, len(jobs))
	reasons := make([]string, len(jobs))
	for i, q := range jobs {
		obs := Backlog(q, w)
		if plans != nil {
			obs.Plan = plans[i]
		}
		st, targets[i], reasons[i] = p.Step(st, obs)
		w = targets[i]
	}
	return targets, reasons
}

// mustHybrid: pool 2..16 with default thresholds at a 50ms tick — grow
// cooldown 1 tick, shrink cooldown and stability window 10 ticks, MaxStep 4.
func mustHybrid(t *testing.T) Hybrid {
	t.Helper()
	h, err := NewHybrid(Config{MinWorkers: 2, MaxWorkers: 16}, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// The overlay table pins the planner's two paths: the max-overlay upward
// (MaxStep-bounded, ceiling-capped, overriding a reactive shrink) and the
// gated one-worker release downward.
func TestHybridStepOverlayTable(t *testing.T) {
	const b, fc, fi = "backlog", "forecast", "forecast-idle"
	cases := []struct {
		name    string
		start   int
		jobs    []int
		plans   []int
		targets []int
		reasons []string
	}{
		// No plan: the reactive policy exactly.
		{"no opinion", 4, []int{7, 0}, []int{0, 0}, []int{5, 5}, []string{b, ""}},
		// A plan above the pool grows it with no queue pressure at all, by at
		// most MaxStep per tick and never past the ceiling.
		{"feed-forward grow", 2, []int{0, 0, 0, 0, 0}, []int{40, 40, 40, 40, 40},
			[]int{6, 10, 14, 16, 16}, []string{fc, fc, fc, fc, ""}},
		// The larger of the two targets wins; the reason names the winner.
		{"max of reactive and plan", 4, []int{12, 12}, []int{5, 9}, []int{8, 9}, []string{b, fc}},
		// The plan must sit below pool-1 for two consecutive ticks before a
		// release, then sheds one worker per tick down to plan+1.
		{"release after persistence", 8, []int{0, 0, 0, 0, 0, 0}, []int{4, 4, 4, 4, 4, 4},
			[]int{8, 7, 6, 5, 5, 5}, []string{"", fi, fi, fi, "", ""}},
		// One tick with the plan back at the pool restarts the count.
		{"persistence interrupted", 8, []int{0, 0, 0, 0}, []int{4, 8, 4, 4},
			[]int{8, 8, 8, 7}, []string{"", "", "", fi}},
		// More jobs waiting than the pool is large blocks the release: at the
		// ceiling the reactive policy cannot grow, so only this gate holds
		// the pool (24 waiting on 16, then 14).
		{"release gated by the queue", 16, []int{40, 40, 40, 30}, []int{4, 4, 4, 4},
			[]int{16, 16, 16, 15}, []string{"", "", "", fi}},
		// Any other decision restarts the release window: the grow on tick 2
		// means the plan must persist two more ticks before the shed.
		{"no shed on the heels of a grow", 8, []int{0, 13, 0, 0, 0}, []int{4, 4, 4, 4, 4},
			[]int{8, 9, 9, 8, 7}, []string{"", b, "", fi, fi}},
		// The release stops at the floor.
		{"release stops at the floor", 4, []int{0, 0, 0, 0, 0}, []int{1, 1, 1, 1, 1},
			[]int{4, 3, 2, 2, 2}, []string{"", fi, fi, "", ""}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			targets, reasons := walk(mustHybrid(t), tc.start, tc.jobs, tc.plans)
			if !reflect.DeepEqual(targets, tc.targets) || !reflect.DeepEqual(reasons, tc.reasons) {
				t.Fatalf("jobs %v plans %v from %d workers:\n got  %v %q\n want %v %q",
					tc.jobs, tc.plans, tc.start, targets, reasons, tc.targets, tc.reasons)
			}
		})
	}
}

// A plan at or above a reactive shrink's target overrides the shrink: the
// forecast says the demand is coming back.
func TestHybridPlanOverridesShrink(t *testing.T) {
	h := mustHybrid(t)
	idle := make([]int, 11)
	plans := make([]int, 11)
	targets, reasons := walk(h, 4, idle, plans)
	if targets[10] != 3 || reasons[10] != "idle" {
		t.Fatalf("without a plan the 11th idle tick = %d %q, want the reactive shrink to 3", targets[10], reasons[10])
	}
	for i := range plans {
		plans[i] = 4
	}
	targets, reasons = walk(h, 4, idle, plans)
	if targets[10] != 4 || reasons[10] != "forecast" {
		t.Fatalf("with the plan at the pool the 11th idle tick = %d %q, want the shrink overridden", targets[10], reasons[10])
	}
}

// boundaryConfig at a 20ms tick: grow cooldown 3 ticks, shrink cooldown and
// stability window 5 ticks.
func boundaryConfig() Config {
	return Config{
		MinWorkers:        2,
		MaxWorkers:        12,
		ScaleUpPressure:   1.5,
		ScaleDownPressure: 0.5,
		ScaleUpCooldown:   60 * time.Millisecond,
		ScaleDownCooldown: 100 * time.Millisecond,
		ShrinkStableFor:   100 * time.Millisecond,
		MaxStep:           3,
	}
}

// A controller whose unit is the policy's tick compares cooldowns against
// the wall clock: a stall between observations counts for the ticks it
// spans, and cooldowns that are not tick multiples round up.
func TestControllerAdvancesByElapsedTicks(t *testing.T) {
	cfg := boundaryConfig()
	cfg.ScaleUpCooldown = 50 * time.Millisecond // rounds up to 3 ticks
	tick := 20 * time.Millisecond
	p, err := NewReactive(cfg, tick)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(p, tick)
	t0 := time.Unix(100, 0)
	at := func(d time.Duration, jobs, workers int) (Decision, bool) {
		return c.Decide(Signals{Now: t0.Add(d), Obs: Backlog(jobs, workers)})
	}
	if dec, act := at(0, 40, 4); !act || dec.Target != 7 {
		t.Fatalf("first grow = %+v (%v), want 4->7", dec, act)
	}
	if dec, act := at(tick, 40, 7); act {
		t.Fatalf("grow one tick into a three-tick cooldown = %+v", dec)
	}
	// The loop stalls: the next observation arrives two ticks late, which
	// is three ticks since the grow.
	dec, act := at(3*tick, 40, 7)
	if !act || dec.Target != 10 {
		t.Fatalf("grow three ticks after the last = %+v (%v), want 7->10", dec, act)
	}
	if dec.Signals.Now != t0.Add(3*tick) || dec.From != 7 || dec.Reason != "backlog" {
		t.Fatalf("decision record %+v does not carry its signals", dec)
	}
}

// With a zero unit the controller counts observations, whatever their
// timestamps say.
func TestControllerZeroUnitCountsObservations(t *testing.T) {
	p, err := NewReactive(boundaryConfig(), 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(p, 0)
	now := time.Unix(100, 0)
	var targets []int
	w := 4
	for i := 0; i < 7; i++ {
		now = now.Add(time.Hour) // would expire every cooldown on a clock
		if dec, act := c.Decide(Signals{Now: now, Obs: Backlog(40, w)}); act {
			w = dec.Target
		}
		targets = append(targets, w)
	}
	if want := []int{7, 7, 7, 10, 10, 10, 12}; !reflect.DeepEqual(targets, want) {
		t.Fatalf("targets %v, want the per-observation cooldown walk %v", targets, want)
	}
	if c.Policy() != Policy(p) {
		t.Fatal("controller misreports its policy")
	}
}

func TestQueueKernel(t *testing.T) {
	k := NewQueue(0.1, 0.25, 8)
	if k.Mu != 0.4 {
		t.Fatalf("mu %g, want tick/mean = 0.4", k.Mu)
	}
	if got := NewQueue(1, 0.25, 8).Mu; got != 1 {
		t.Fatalf("mu %g for a tick longer than the mean runtime, want 1", got)
	}
	if k.Busy(3, 5) != 3 || k.Busy(9, 5) != 5 {
		t.Fatal("busy workers are not min(jobs, pool)")
	}
	if k.Next(2, 1, 5) != 0 || k.Next(6, 5, 1) != 8 || k.Next(3, 2, 1) != 4 {
		t.Fatal("next queue is not clamp(jobs + arrivals - completed)")
	}
	if obs := Backlog(7, 4); obs.Queued != 3 || obs.InFlight != 4 || obs.Jobs() != 7 || obs.Pressure() != 1.75 {
		t.Fatalf("backlog of 7 on 4 workers = %+v", obs)
	}
}

// fixed always targets the same pool.
type fixed int

func (fixed) Name() string { return "fixed" }
func (fixed) Init() State  { return State{} }
func (p fixed) Step(st State, _ Obs) (State, int, string) {
	return st, int(p), "fixed"
}

func TestQueueReplay(t *testing.T) {
	k := NewQueue(0.1, 0.25, 8)
	tr := Trace{Counts: []int{3, 20, 0, 0}, Rates: []float64{1, 2, 3, 4}, Plans: []int{5, 6, 7, 8}}
	run := func(maxTicks int, stopAt int) ([]Tick, int) {
		var ticks []Tick
		n := k.Replay(tr, 2, maxTicks, finmath.NewRNG(7), Stepper(fixed(3)), func(tk Tick) bool {
			ticks = append(ticks, tk)
			return tk.I != stopAt
		})
		return ticks, n
	}
	ticks, n := run(0, -1)
	if n != 4 || len(ticks) != 4 {
		t.Fatalf("ran %d ticks (%d reported), want the trace's 4", n, len(ticks))
	}
	jobs := 0
	for i, tk := range ticks {
		want := Backlog(jobs, []int{2, 3, 3, 3}[i])
		want.RatePerTick, want.Plan = tr.Rates[i], tr.Plans[i]
		if tk.I != i || tk.Obs != want || tk.Target != 3 || tk.Arrivals != tr.Counts[i] {
			t.Fatalf("tick %d = %+v, want observation %+v", i, tk, want)
		}
		if tk.Completed > k.Busy(jobs, 3) || tk.Jobs != k.Next(jobs, tk.Arrivals, tk.Completed) {
			t.Fatalf("tick %d breaks the recursion from %d jobs: %+v", i, jobs, tk)
		}
		jobs = tk.Jobs
	}
	if ticks[1].Jobs != k.Max {
		t.Fatalf("20 arrivals left %d jobs, want the truncation %d", ticks[1].Jobs, k.Max)
	}
	again, _ := run(0, -1)
	if !reflect.DeepEqual(ticks, again) {
		t.Fatal("replay is not deterministic in its seed")
	}
	// Draining continues past the trace with no arrivals, rate or plan until
	// the system empties.
	drained, n := run(1000, -1)
	last := drained[len(drained)-1]
	if n <= 4 || n != len(drained) || last.Jobs != 0 || last.Arrivals != 0 || last.Obs.RatePerTick != 0 || last.Obs.Plan != 0 {
		t.Fatalf("drain ran %d ticks and ended on %+v", n, last)
	}
	if !reflect.DeepEqual(drained[:4], ticks) {
		t.Fatal("the drain tail changed the trace's own ticks")
	}
	// The drain is capped, and after can stop the replay early.
	if _, n := run(5, -1); n != 5 {
		t.Fatalf("capped drain ran %d ticks, want 5", n)
	}
	if stopped, n := run(0, 1); n != 2 || len(stopped) != 2 {
		t.Fatalf("early stop ran %d ticks, want 2", n)
	}
}
