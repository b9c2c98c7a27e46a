package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"disarcloud/internal/eeb"
	"disarcloud/internal/elastic"
	"disarcloud/internal/stochastic"
)

// pacedSpec is serviceSpec with a real wall-clock component, so pool and
// queue effects are observable.
func pacedSpec(name string, outer int, seed uint64, pace float64) SimulationSpec {
	spec := serviceSpec(name, outer, seed)
	spec.PaceFactor = pace
	return spec
}

// waitStatus polls until the job reaches the wanted status or the deadline.
func waitStatus(t *testing.T, svc *Service, id JobID, want JobStatus) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Status == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
}

// TestServiceShrinkWhileCampaignRunning shrinks the pool under a live
// campaign and checks the shrink drains gracefully: no job is interrupted,
// the campaign's all-or-nothing result is intact, and the pool lands on the
// new target.
func TestServiceShrinkWhileCampaignRunning(t *testing.T) {
	d, err := NewDeployer(61)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(d, WithWorkers(4), WithQueueDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	base := pacedSpec("shrink-campaign", 20, 11, 2e-4)
	cid, err := svc.SubmitCampaign(context.Background(), CampaignSpec{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the campaign is actually running, then shrink 4 -> 1.
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, err := svc.CampaignStatus(cid)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Status == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Resize(1); err != nil {
		t.Fatal(err)
	}
	if got := svc.Workers(); got != 1 {
		t.Fatalf("target after Resize = %d, want 1", got)
	}

	rep, err := svc.CampaignResult(context.Background(), cid)
	if err != nil {
		t.Fatalf("campaign across a shrink failed: %v", err)
	}
	if len(rep.Modules) == 0 || rep.BaseBEL <= 0 {
		t.Fatalf("degenerate campaign report across a shrink: %+v", rep)
	}
	snap, err := svc.CampaignStatus(cid)
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range snap.Jobs {
		if js.Status != JobDone {
			t.Fatalf("job %s = %v after shrink, want done (graceful drain)", js.ID, js.Status)
		}
	}
	// The excess workers must actually retire once idle.
	drainDeadline := time.Now().Add(10 * time.Second)
	for {
		st := svc.AutoscalerStatus()
		if st.LiveWorkers == 1 {
			break
		}
		if time.Now().After(drainDeadline) {
			t.Fatalf("live workers = %d after drain deadline, want 1", st.LiveWorkers)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServiceEDFPrefersTighterDeadline: with one busy worker, a later
// submission with an earlier deadline runs before an earlier submission
// with a later deadline.
func TestServiceEDFPrefersTighterDeadline(t *testing.T) {
	d, err := NewDeployer(67)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(d, WithWorkers(1), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	blocker, err := svc.Submit(ctx, pacedSpec("blocker", 10, 21, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, blocker, JobRunning)

	loose := pacedSpec("loose", 10, 22, 0)
	loose.Constraints.TmaxSeconds = 3000
	looseID, err := svc.Submit(ctx, loose)
	if err != nil {
		t.Fatal(err)
	}
	tight := pacedSpec("tight", 10, 23, 0)
	tight.Constraints.TmaxSeconds = 600
	tightID, err := svc.Submit(ctx, tight)
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range []JobID{blocker, looseID, tightID} {
		if _, err := svc.Result(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	tightSnap, _ := svc.Status(tightID)
	looseSnap, _ := svc.Status(looseID)
	if !tightSnap.StartedAt.Before(looseSnap.StartedAt) {
		t.Fatalf("EDF violated: tight-deadline job started %v, loose %v",
			tightSnap.StartedAt, looseSnap.StartedAt)
	}
}

// TestServiceAdmissionRejectionUnderFullBacklog drives the backlog up under
// a fake estimator and checks a tight-deadline submission is rejected with
// the 503-able AdmissionError while a loose one still gets in, and that the
// rejection leaves no job record behind.
func TestServiceAdmissionRejectionUnderFullBacklog(t *testing.T) {
	d, err := NewDeployer(71)
	if err != nil {
		t.Fatal(err)
	}
	est := EstimatorFunc(func(spec SimulationSpec) (float64, bool) { return 10, true })
	svc, err := NewService(d, WithWorkers(1), WithQueueDepth(64), WithAdmissionControl(est))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	// A paced blocker plus four queued jobs: backlog estimate 5*10s = 50s
	// over one worker.
	for i := 0; i < 5; i++ {
		if _, err := svc.Submit(ctx, pacedSpec("backlog", 10, uint64(30+i), 1e-3)); err != nil {
			t.Fatalf("backlog submit %d: %v", i, err)
		}
	}
	tight := pacedSpec("tight", 10, 40, 0)
	tight.Constraints.TmaxSeconds = 20 // 50s wait + 10s run against 20s
	_, err = svc.Submit(ctx, tight)
	var adm *AdmissionError
	if !errors.As(err, &adm) || !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("tight submit = %v, want admission rejection", err)
	}
	if adm.RetryAfterSeconds <= 0 || adm.PredictedSeconds <= adm.TmaxSeconds {
		t.Fatalf("admission numbers inconsistent: %+v", adm)
	}
	before := len(svc.Jobs())
	if before != 5 {
		t.Fatalf("job records after rejection = %d, want 5 (no phantom record)", before)
	}
	// A loose deadline on the same backlog is admitted.
	loose := pacedSpec("loose", 10, 41, 0)
	loose.Constraints.TmaxSeconds = 3600
	if _, err := svc.Submit(ctx, loose); err != nil {
		t.Fatalf("loose submit rejected: %v", err)
	}
}

// TestServiceElasticGrowsAndShrinks runs a paced burst on an elastic
// service and checks the pool breathes: grows above the floor during the
// burst (with backlog-reasoned decisions and events on the stream), then
// shrinks back to the floor when idle.
func TestServiceElasticGrowsAndShrinks(t *testing.T) {
	d, err := NewDeployer(73)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(d,
		WithWorkers(1), WithQueueDepth(64),
		WithElastic(elastic.Config{
			MinWorkers:        1,
			MaxWorkers:        4,
			ScaleUpCooldown:   time.Millisecond,
			ScaleDownCooldown: 30 * time.Millisecond,
			ShrinkStableFor:   30 * time.Millisecond,
		}),
		WithElasticTick(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	events, unsub := svc.AutoscalerEvents(64)
	defer unsub()

	ctx := context.Background()
	var ids []JobID
	for i := 0; i < 8; i++ {
		id, err := svc.Submit(ctx, pacedSpec("burst", 10, uint64(80+i), 5e-4))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := svc.Result(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	// The pool must have grown during the burst...
	var sawGrow bool
	peak := 1
	st := svc.AutoscalerStatus()
	if !st.Enabled {
		t.Fatal("autoscaler status reports disabled on an elastic service")
	}
	for _, ev := range st.Recent {
		if ev.Target > ev.From {
			sawGrow = true
			if ev.Reason != "backlog" && ev.Reason != "deadline" {
				t.Fatalf("grow decision with reason %q", ev.Reason)
			}
		}
		if ev.Target > peak {
			peak = ev.Target
		}
	}
	if !sawGrow || peak <= 1 {
		t.Fatalf("pool never grew under the burst: peak %d, decisions %+v", peak, st.Recent)
	}
	// ...and the events stream carries the same decisions.
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatal("event stream closed while the service is open")
		}
		if ev.Target <= ev.From {
			t.Fatalf("first streamed decision is not a grow: %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no scaling event streamed during the burst")
	}
	// ...and it must shrink back to the floor once idle.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Workers() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("pool stuck at %d workers after the burst drained", svc.Workers())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// panicSource passes the submission-time probe (Outer(0) works) and then
// explodes on the next outer path, deep inside the valuation — the
// poisoned-KB scenario of the panic-guard regression test.
type panicSource struct{ inner stochastic.Source }

func (p panicSource) Outer(i int) *stochastic.Scenario {
	if i > 0 {
		panic("panicSource: boom")
	}
	return p.inner.Outer(i)
}

func (p panicSource) Inner(i, j int, outer *stochastic.Scenario, branchYear float64) *stochastic.Scenario {
	return p.inner.Inner(i, j, outer, branchYear)
}

// TestServicePanickedJobDoesNotTrainKB: a job that crashes mid-valuation
// must fail cleanly AND leave no execution-time sample behind — before the
// fix its deploy sample stayed in the knowledge base, training the
// predictors on the timing of a run that produced nothing. The proxy tier
// values on goroutines of its own: before they ran behind the grid's
// fork/join its row took the whole process down.
func TestServicePanickedJobDoesNotTrainKB(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proxy *ProxySpec
	}{
		{name: "grid"},
		{name: "proxy tier", proxy: &ProxySpec{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDeployer(79)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewService(d, WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			ctx := context.Background()
			// A healthy job first, so the KB is non-empty and eviction of the
			// poisoned sample is observable as "unchanged", not "still empty".
			healthy, err := svc.Submit(ctx, serviceSpec("healthy", 10, 5))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Result(ctx, healthy); err != nil {
				t.Fatal(err)
			}
			before := d.KB().Len()
			if before == 0 {
				t.Fatal("healthy job recorded no sample")
			}

			spec := serviceSpec("poison", 10, 6)
			gen, err := stochastic.NewGenerator(spec.Market)
			if err != nil {
				t.Fatal(err)
			}
			spec.Scenarios = panicSource{inner: stochastic.NewPathSource(gen, spec.Seed)}
			spec.MaxWorkers = 1
			spec.Proxy = tc.proxy
			id, err := svc.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Result(ctx, id); err == nil {
				t.Fatal("panicking job reported success")
			}
			snap, err := svc.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Status != JobFailed || !strings.Contains(snap.Error, "panic") {
				t.Fatalf("panicking job = %v (%q), want failed with a panic message", snap.Status, snap.Error)
			}
			if got := d.KB().Len(); got != before {
				t.Fatalf("knowledge base grew from %d to %d samples on a panicked run", before, got)
			}
			// The service survives: the next submission still works.
			next, err := svc.Submit(ctx, serviceSpec("after", 10, 7))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Result(ctx, next); err != nil {
				t.Fatalf("job after the panic failed: %v", err)
			}
		})
	}
}

// TestDeployerForgetRetrainsOrDrops unit-tests the retraction path: a
// forgotten sample leaves the KB, and the affected architecture's models are
// dropped when the remainder cannot train.
func TestDeployerForgetRetrainsOrDrops(t *testing.T) {
	d, err := NewDeployer(83)
	if err != nil {
		t.Fatal(err)
	}
	params := eeb.CharacteristicParams{
		RepresentativeContracts: 2, MaxHorizon: 10, FundAssets: 4,
		RiskFactors: 3, OuterPaths: 10, InnerPaths: 3,
	}
	rep, err := d.DeployManual(context.Background(), "m4.4xlarge", 2, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.sample == nil {
		t.Fatal("manual deploy recorded no sample reference")
	}
	before := d.KB().Len()
	if err := d.forget(rep); err != nil {
		t.Fatal(err)
	}
	if got := d.KB().Len(); got != before-1 {
		t.Fatalf("KB after forget = %d samples, want %d", got, before-1)
	}
	if d.Predictor().Trained("m4.4xlarge") {
		t.Fatal("predictor still trained on m4.4xlarge below the sample threshold")
	}
	// forget is idempotent: the sample is gone, a second call is a no-op.
	if err := d.forget(rep); err != nil {
		t.Fatal(err)
	}
	if got := d.KB().Len(); got != before-1 {
		t.Fatalf("second forget changed the KB to %d samples", got)
	}
}
