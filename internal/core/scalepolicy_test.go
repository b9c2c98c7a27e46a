package core

import (
	"testing"
	"time"

	"disarcloud/internal/elastic"
	"disarcloud/internal/forecast"
)

// stepPolicy is a trivial custom policy: grow by one worker on every tick
// until the ceiling, so each injected tick produces exactly one decision.
type stepPolicy struct{ max int }

func (p stepPolicy) Name() string        { return "step" }
func (p stepPolicy) Init() elastic.State { return elastic.State{} }

func (p stepPolicy) Step(st elastic.State, obs elastic.Obs) (elastic.State, int, string) {
	if obs.Workers >= p.max {
		return st, obs.Workers, ""
	}
	return st, obs.Workers + 1, "step"
}

func TestWithScalingPolicyDrivesControlLoop(t *testing.T) {
	ticks := make(chan time.Time)
	svc := tickService(t, ticks, WithScalingPolicy(stepPolicy{max: 4}))
	defer svc.Close()

	if st := svc.AutoscalerStatus(); st.Policy != "step" {
		t.Fatalf("status reports policy %q, want the injected one", st.Policy)
	}
	events, unsub := svc.AutoscalerEvents(8)
	defer unsub()
	for want := 3; want <= 4; want++ {
		ticks <- time.Unix(int64(1000*want), 0)
		select {
		case ev := <-events:
			if ev.Reason != "step" || ev.Target != want {
				t.Fatalf("decision %+v, want step to %d", ev, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no decision after the injected tick")
		}
		if got := svc.Workers(); got != want {
			t.Fatalf("workers = %d, want %d", got, want)
		}
	}
	// At the policy's ceiling the loop must sit silent.
	ticks <- time.Unix(9000, 0)
	ticks <- time.Unix(9001, 0) // second tick proves the first was processed
	if got := svc.Workers(); got != 4 {
		t.Fatalf("workers past the policy ceiling = %d, want 4", got)
	}
}

func TestWithScalingPolicyRequiresElastic(t *testing.T) {
	d, err := NewDeployer(11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(d, WithScalingPolicy(stepPolicy{max: 4})); err == nil {
		t.Fatal("WithScalingPolicy without WithElastic was accepted")
	}
}

// The built-in policies must keep reporting their names through the seam.
func TestBuiltinPolicyNames(t *testing.T) {
	ticks := make(chan time.Time)
	svc := tickService(t, ticks)
	if st := svc.AutoscalerStatus(); st.Policy != "reactive" {
		t.Fatalf("elastic-only service reports policy %q, want reactive", st.Policy)
	}
	svc.Close()

	ticks2 := make(chan time.Time)
	svc2 := tickService(t, ticks2, WithForecast(forecast.Config{}))
	if st := svc2.AutoscalerStatus(); st.Policy != "hybrid" {
		t.Fatalf("forecast service reports policy %q, want hybrid", st.Policy)
	}
	svc2.Close()
}
