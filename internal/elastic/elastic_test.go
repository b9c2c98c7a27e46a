package elastic

import (
	"math"
	"testing"
	"time"
)

// testConfig is a controller with round numbers so boundary arithmetic in
// the tests is exact.
func testConfig() Config {
	return Config{
		MinWorkers:        2,
		MaxWorkers:        8,
		ScaleUpPressure:   2.0,
		ScaleDownPressure: 0.5,
		ScaleUpCooldown:   100 * time.Millisecond,
		ScaleDownCooldown: time.Second,
		ShrinkStableFor:   time.Second,
		MaxStep:           4,
	}
}

// mustController drives the reactive policy at nanosecond ticks, where its
// cooldowns hold against the synthetic timestamps exactly.
func mustController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	p, err := NewReactive(cfg, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	return NewController(p, time.Nanosecond)
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"max below min", func(c *Config) { c.MaxWorkers = 1 }},
		{"no hysteresis band", func(c *Config) { c.ScaleDownPressure = c.ScaleUpPressure }},
		{"inverted band", func(c *Config) { c.ScaleDownPressure = c.ScaleUpPressure + 1 }},
		{"negative cooldown", func(c *Config) { c.ScaleUpCooldown = -time.Second }},
		{"negative step", func(c *Config) { c.MaxStep = -1 }},
		{"NaN scale-up pressure", func(c *Config) { c.ScaleUpPressure = math.NaN() }},
		{"NaN scale-down pressure", func(c *Config) { c.ScaleDownPressure = math.NaN() }},
		{"infinite scale-up pressure", func(c *Config) { c.ScaleUpPressure = math.Inf(1) }},
		{"negative scale-down pressure", func(c *Config) { c.ScaleDownPressure = -0.5 }},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mut(&cfg)
		if _, err := NewReactive(cfg, time.Nanosecond); err == nil {
			t.Errorf("%s: NewReactive accepted an inadmissible config", tc.name)
		}
	}
	// The zero-ish config defaults into something usable.
	c, err := NewReactive(Config{MaxWorkers: 4}, time.Nanosecond)
	if err != nil {
		t.Fatalf("defaulted config rejected: %v", err)
	}
	if got := c.Config(); got.MinWorkers != 1 || got.ScaleUpPressure != DefaultScaleUpPressure {
		t.Fatalf("defaults not applied: %+v", got)
	}
}

func TestScaleUpOnBacklogPressure(t *testing.T) {
	c := mustController(t, testConfig())
	t0 := time.Unix(1000, 0)

	// Pressure exactly at the threshold must NOT trigger (strictly above).
	if _, act := c.Decide(Signals{Now: t0, Obs: Obs{Queued: 2, InFlight: 2, Workers: 2}}); act {
		t.Fatal("pressure == threshold triggered a grow; want strict inequality")
	}
	// One job more crosses it: 5 jobs over threshold 2.0 wants ceil(5/2)=3.
	dec, act := c.Decide(Signals{Now: t0, Obs: Obs{Queued: 3, InFlight: 2, Workers: 2}})
	if !act || dec.Target != 3 || dec.Reason != "backlog" {
		t.Fatalf("grow decision = %+v (%v), want target 3 reason backlog", dec, act)
	}
}

func TestScaleUpRespectsMaxStepAndCeiling(t *testing.T) {
	c := mustController(t, testConfig())
	t0 := time.Unix(1000, 0)
	// 40 queued over 2 workers wants ceil(40/2)=20, clamped to +MaxStep=6.
	dec, act := c.Decide(Signals{Now: t0, Obs: Obs{Queued: 40, Workers: 2}})
	if !act || dec.Target != 6 {
		t.Fatalf("step-clamped grow = %+v (%v), want target 6", dec, act)
	}
	// Near the ceiling the clamp is MaxWorkers.
	c2 := mustController(t, testConfig())
	dec, act = c2.Decide(Signals{Now: t0, Obs: Obs{Queued: 40, Workers: 7}})
	if !act || dec.Target != 8 {
		t.Fatalf("ceiling-clamped grow = %+v (%v), want target 8", dec, act)
	}
	// At the ceiling no grow fires at all.
	c3 := mustController(t, testConfig())
	if dec, act := c3.Decide(Signals{Now: t0, Obs: Obs{Queued: 40, Workers: 8}}); act {
		t.Fatalf("grow at the ceiling = %+v, want none", dec)
	}
}

// TestScaleUpCooldownBoundary pins the cooldown edge: a second grow is
// refused strictly inside the cooldown and allowed exactly at it.
func TestScaleUpCooldownBoundary(t *testing.T) {
	cfg := testConfig()
	c := mustController(t, cfg)
	t0 := time.Unix(1000, 0)
	if _, act := c.Decide(Signals{Now: t0, Obs: Obs{Queued: 10, Workers: 2}}); !act {
		t.Fatal("first grow did not fire")
	}
	inside := t0.Add(cfg.ScaleUpCooldown - time.Nanosecond)
	if dec, act := c.Decide(Signals{Now: inside, Obs: Obs{Queued: 20, Workers: 6}}); act {
		t.Fatalf("grow inside the cooldown = %+v, want none", dec)
	}
	at := t0.Add(cfg.ScaleUpCooldown)
	if _, act := c.Decide(Signals{Now: at, Obs: Obs{Queued: 20, Workers: 6}}); !act {
		t.Fatal("grow exactly at the cooldown boundary did not fire")
	}
}

// TestShrinkNeedsStabilityWindow pins the hysteresis: the load must sit
// below the scale-down threshold for the full window before a shrink fires,
// and any pressure blip restarts the window.
func TestShrinkNeedsStabilityWindow(t *testing.T) {
	cfg := testConfig()
	c := mustController(t, cfg)
	t0 := time.Unix(2000, 0)

	idle := func(now time.Time) (Decision, bool) {
		return c.Decide(Signals{Now: now, Obs: Obs{Queued: 0, InFlight: 0, Workers: 4}})
	}
	if dec, act := idle(t0); act {
		t.Fatalf("shrink at window start = %+v, want none", dec)
	}
	if dec, act := idle(t0.Add(cfg.ShrinkStableFor - time.Millisecond)); act {
		t.Fatalf("shrink inside the stability window = %+v, want none", dec)
	}
	dec, act := idle(t0.Add(cfg.ShrinkStableFor))
	if !act || dec.Target != 3 || dec.Reason != "idle" {
		t.Fatalf("shrink at the window boundary = %+v (%v), want target 3 reason idle", dec, act)
	}

	// A pressure blip must reset the window: low, blip, low again.
	c2 := mustController(t, cfg)
	step := cfg.ShrinkStableFor / 2
	c2.Decide(Signals{Now: t0, Obs: Obs{Workers: 4}})                      // low: window opens
	c2.Decide(Signals{Now: t0.Add(step), Obs: Obs{Queued: 9, Workers: 4}}) // blip: resets (also a grow)
	c2.Decide(Signals{Now: t0.Add(2 * step), Obs: Obs{Workers: 4}})        // low again: window reopens
	if dec, act := c2.Decide(Signals{Now: t0.Add(3 * step), Obs: Obs{Workers: 4}}); act {
		// Only half the window has elapsed since the blip.
		t.Fatalf("shrink %v fired with a blip inside the window", dec)
	}
}

// TestShrinkCooldownsAndFloor checks shrinks step down one at a time, honour
// the scale-down cooldown, never cross the floor, and are suppressed right
// after a grow.
func TestShrinkCooldownsAndFloor(t *testing.T) {
	cfg := testConfig()
	c := mustController(t, cfg)
	t0 := time.Unix(3000, 0)

	c.Decide(Signals{Now: t0, Obs: Obs{Workers: 4}}) // window opens
	dec, act := c.Decide(Signals{Now: t0.Add(cfg.ShrinkStableFor), Obs: Obs{Workers: 4}})
	if !act || dec.Target != 3 {
		t.Fatalf("first shrink = %+v (%v), want 4->3", dec, act)
	}
	// Immediately after, the cooldown (and the restarted window) refuse more.
	if dec, act := c.Decide(Signals{Now: t0.Add(cfg.ShrinkStableFor + time.Millisecond), Obs: Obs{Workers: 3}}); act {
		t.Fatalf("second shrink inside the cooldown = %+v, want none", dec)
	}
	// After both cooldown and a fresh stability window, the next one fires.
	later := t0.Add(cfg.ShrinkStableFor + cfg.ScaleDownCooldown + cfg.ShrinkStableFor)
	if _, act := c.Decide(Signals{Now: later, Obs: Obs{Workers: 3}}); !act {
		t.Fatal("shrink after cooldown + fresh window did not fire")
	}
	// At the floor, never.
	c2 := mustController(t, cfg)
	c2.Decide(Signals{Now: t0, Obs: Obs{Workers: cfg.MinWorkers}})
	if dec, act := c2.Decide(Signals{Now: t0.Add(10 * cfg.ShrinkStableFor), Obs: Obs{Workers: cfg.MinWorkers}}); act {
		t.Fatalf("shrink below the floor = %+v, want none", dec)
	}
	// A grow also suppresses the following shrink for ScaleDownCooldown.
	c3 := mustController(t, cfg)
	c3.Decide(Signals{Now: t0, Obs: Obs{Queued: 10, Workers: 2}}) // grow
	quiet := t0.Add(cfg.ShrinkStableFor)
	c3.Decide(Signals{Now: quiet, Obs: Obs{Workers: 6}}) // window opens at `quiet`
	afterWindow := quiet.Add(cfg.ShrinkStableFor)
	if afterWindow.Sub(t0) < cfg.ScaleDownCooldown {
		if dec, act := c3.Decide(Signals{Now: afterWindow, Obs: Obs{Workers: 6}}); act && dec.Target < 6 {
			t.Fatalf("shrink %v fired inside the post-grow cooldown", dec)
		}
	}
}

// TestDeadlinePressureGrowsPool: even below the backlog threshold, a queued
// deadline the estimated backlog cannot meet grows the pool.
func TestDeadlinePressureGrowsPool(t *testing.T) {
	c := mustController(t, testConfig())
	t0 := time.Unix(4000, 0)
	// Pressure 3/2 jobs-per-worker on 2 workers is below the 2.0 threshold,
	// but 120s of backlog against 30s of slack cannot make it.
	dec, act := c.Decide(Signals{Now: t0, Obs: Obs{
		Queued: 1, InFlight: 2, Workers: 2,
		BacklogETASeconds: 120, SlackSeconds: 30,
	}})
	if !act || dec.Reason != "deadline" || dec.Target != 3 {
		t.Fatalf("deadline-pressure decision = %+v (%v), want +1 worker reason deadline", dec, act)
	}
	// With enough slack the same signals stay put.
	c2 := mustController(t, testConfig())
	if dec, act := c2.Decide(Signals{Now: t0, Obs: Obs{
		Queued: 1, InFlight: 2, Workers: 2,
		BacklogETASeconds: 120, SlackSeconds: 100,
	}}); act {
		t.Fatalf("decision %+v fired with sufficient slack", dec)
	}
}

// TestBoundEnforcement: a pool outside [Min, Max] snaps back regardless of
// cooldowns.
func TestBoundEnforcement(t *testing.T) {
	c := mustController(t, testConfig())
	t0 := time.Unix(5000, 0)
	dec, act := c.Decide(Signals{Now: t0, Obs: Obs{Workers: 1}})
	if !act || dec.Target != 2 || dec.Reason != "floor" {
		t.Fatalf("floor enforcement = %+v (%v), want target 2", dec, act)
	}
	dec, act = c.Decide(Signals{Now: t0, Obs: Obs{Workers: 11}})
	if !act || dec.Target != 8 || dec.Reason != "ceiling" {
		t.Fatalf("ceiling enforcement = %+v (%v), want target 8", dec, act)
	}
}
