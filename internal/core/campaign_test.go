package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"disarcloud/internal/stochastic"
	"disarcloud/internal/stress"
)

// TestCampaignEndToEnd runs the seven-module standard-formula campaign
// through SubmitCampaign and checks the acceptance shape: per-module
// delta-BEL, a correlation-aggregated SCR consistent with re-aggregating the
// deltas, campaign status lifecycle, and one knowledge-base sample per job.
func TestCampaignEndToEnd(t *testing.T) {
	d, err := NewDeployer(61)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(d, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	id, err := svc.SubmitCampaign(ctx, CampaignSpec{Base: serviceSpec("campaign", 30, 11)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.CampaignResult(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseBEL <= 0 {
		t.Fatalf("degenerate base BEL %v", rep.BaseBEL)
	}
	if len(rep.Modules) != 7 {
		t.Fatalf("campaign ran %d modules, want 7", len(rep.Modules))
	}
	deltas := make(map[stress.Module]float64, len(rep.Modules))
	anyCharge := false
	for _, m := range rep.Modules {
		if m.BEL <= 0 {
			t.Fatalf("module %s degenerate BEL %v", m.Module, m.BEL)
		}
		if m.DeltaBEL < 0 {
			t.Fatalf("module %s negative delta %v (must be floored)", m.Module, m.DeltaBEL)
		}
		if m.DeltaBEL > 0 {
			anyCharge = true
		}
		deltas[m.Module] = m.DeltaBEL
	}
	if !anyCharge {
		t.Fatal("no module produced a capital charge")
	}
	if want := stress.Aggregate(deltas); rep.SCR != want {
		t.Fatalf("reported SCR %+v differs from re-aggregated %+v", rep.SCR, want)
	}
	if rep.SCR.BSCR <= 0 {
		t.Fatalf("aggregated BSCR %v not positive", rep.SCR.BSCR)
	}

	snap, err := svc.CampaignStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status != JobDone {
		t.Fatalf("campaign status %s, want done", snap.Status)
	}
	if len(snap.Jobs) != 8 {
		t.Fatalf("campaign tracks %d jobs, want 8", len(snap.Jobs))
	}
	if snap.Done != snap.Total || snap.Total == 0 {
		t.Fatalf("campaign progress %d/%d not complete", snap.Done, snap.Total)
	}
	// Every job (base + 7 modules) fed the shared knowledge base.
	if got := d.KB().Len(); got != 8 {
		t.Fatalf("KB holds %d samples after an 8-job campaign", got)
	}
	if list := svc.Campaigns(); len(list) != 1 || list[0].ID != id {
		t.Fatalf("Campaigns() = %+v, want the one campaign", list)
	}
}

// TestCampaignReuseMatchesIndependentJobs checks the reuse contract: the
// shared-scenario-set campaign and the regenerate-everything campaign
// produce bit-identical per-module results.
func TestCampaignReuseMatchesIndependentJobs(t *testing.T) {
	run := func(noReuse bool) *CampaignReport {
		d, err := NewDeployer(67)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(d, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		id, err := svc.SubmitCampaign(context.Background(), CampaignSpec{
			Base:            serviceSpec("reuse", 25, 13),
			NoScenarioReuse: noReuse,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := svc.CampaignResult(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(false), run(true)
	if a.BaseBEL != b.BaseBEL {
		t.Fatalf("base BEL differs with reuse: %v vs %v", a.BaseBEL, b.BaseBEL)
	}
	for k := range a.Modules {
		ma, mb := a.Modules[k], b.Modules[k]
		if ma.Module != mb.Module || ma.BEL != mb.BEL || ma.DeltaBEL != mb.DeltaBEL {
			t.Fatalf("module %s differs with reuse: %+v vs %+v", ma.Module, ma, mb)
		}
	}
	if a.SCR != b.SCR {
		t.Fatalf("SCR differs with reuse: %+v vs %+v", a.SCR, b.SCR)
	}
}

// TestCampaignConcurrentWithSingleJobs is the -race coverage for mixed
// traffic: two campaigns and a stream of single jobs share one service and
// deployer concurrently. The shared KB must stay consistent (one valid
// sample per job) and the per-job seed splits deterministic — the two
// same-seed campaigns and the same-seed singles must agree bit-for-bit no
// matter how the workers interleaved them.
func TestCampaignConcurrentWithSingleJobs(t *testing.T) {
	d, err := NewDeployer(71)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(d, WithWorkers(4), WithQueueDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	const singles = 4
	var (
		wg      sync.WaitGroup
		campIDs [2]CampaignID
		jobIDs  [singles]JobID
		errs    [2 + singles]error
	)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Both campaigns use the SAME base seed: their module results
			// must agree exactly.
			campIDs[c], errs[c] = svc.SubmitCampaign(ctx, CampaignSpec{Base: serviceSpec("camp", 20, 501)})
		}(c)
	}
	for i := 0; i < singles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Singles i and i+2 share a seed.
			jobIDs[i], errs[2+i] = svc.Submit(ctx, serviceSpec("single", 20, uint64(600+i%2)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}

	var reps [2]*CampaignReport
	for c, id := range campIDs {
		rep, err := svc.CampaignResult(ctx, id)
		if err != nil {
			t.Fatalf("campaign %s: %v", id, err)
		}
		reps[c] = rep
	}
	if reps[0].BaseBEL != reps[1].BaseBEL {
		t.Fatalf("same-seed campaigns disagree on base BEL: %v vs %v", reps[0].BaseBEL, reps[1].BaseBEL)
	}
	for k := range reps[0].Modules {
		a, b := reps[0].Modules[k], reps[1].Modules[k]
		if a.Module != b.Module || a.BEL != b.BEL {
			t.Fatalf("same-seed campaigns disagree on module %s: %v vs %v", a.Module, a.BEL, b.BEL)
		}
	}
	var singleReps [singles]*SimulationReport
	for i, id := range jobIDs {
		rep, err := svc.Result(ctx, id)
		if err != nil {
			t.Fatalf("single %s: %v", id, err)
		}
		singleReps[i] = rep
	}
	for i := 0; i < 2; i++ {
		if singleReps[i].BEL != singleReps[i+2].BEL {
			t.Fatalf("same-seed singles disagree: %v vs %v", singleReps[i].BEL, singleReps[i+2].BEL)
		}
	}

	// 2 campaigns x 8 jobs + 4 singles, every sample valid.
	if got, want := d.KB().Len(), 2*8+singles; got != want {
		t.Fatalf("KB holds %d samples, want %d", got, want)
	}
	for i, s := range d.KB().Samples() {
		if err := s.Validate(); err != nil {
			t.Fatalf("KB sample %d invalid: %v", i, err)
		}
	}
}

// TestCampaignValidation covers the rejection paths: bad base spec, a
// pre-set scenario source, duplicate modules, and unknown campaign IDs.
func TestCampaignValidation(t *testing.T) {
	d, err := NewDeployer(73)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(d, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	if _, err := svc.SubmitCampaign(ctx, CampaignSpec{}); err == nil {
		t.Fatal("empty campaign spec accepted")
	}
	spec := serviceSpec("bad", 10, 1)
	gen, err := stochastic.NewGenerator(spec.Market)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scenarios = stochastic.NewSet(gen, 1)
	if _, err := svc.SubmitCampaign(ctx, CampaignSpec{Base: spec}); err == nil {
		t.Fatal("campaign with pre-set scenario source accepted")
	}
	dup := []stress.Shock{
		{Module: stress.Equity, Market: stochastic.Transform{EquityFactor: 0.61}},
		{Module: stress.Equity, Market: stochastic.Transform{EquityFactor: 0.5}},
	}
	if _, err := svc.SubmitCampaign(ctx, CampaignSpec{Base: serviceSpec("dup", 10, 1), Shocks: dup}); err == nil {
		t.Fatal("duplicate modules accepted")
	}
	if len(svc.Jobs()) != 0 || len(svc.Campaigns()) != 0 {
		t.Fatal("rejected campaigns left records behind")
	}
	if _, err := svc.CampaignStatus("camp-nope"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("CampaignStatus(unknown) = %v, want ErrUnknownCampaign", err)
	}
	if _, err := svc.CampaignResult(ctx, "camp-nope"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("CampaignResult(unknown) = %v, want ErrUnknownCampaign", err)
	}
	if err := svc.CancelCampaign("camp-nope"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("CancelCampaign(unknown) = %v, want ErrUnknownCampaign", err)
	}
}

// TestCampaignQueueFullRollsBack starves the queue so a later module job is
// rejected and checks the all-or-nothing contract: no campaign registered
// and the already-submitted campaign jobs cancelled.
func TestCampaignQueueFullRollsBack(t *testing.T) {
	d, err := NewDeployer(79)
	if err != nil {
		t.Fatal(err)
	}
	walking := make(chan struct{})
	var once sync.Once
	d.hook = func(point string) {
		if point == "walk" {
			once.Do(func() { close(walking) })
		}
	}
	svc, err := NewService(d, WithWorkers(1), WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	blockerCtx, cancelBlocker := context.WithCancel(context.Background())
	defer cancelBlocker()
	blocker, err := svc.Submit(blockerCtx, serviceSpec("blocker", 100000, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Walking, the blocker holds the only worker and has left the queue.
	select {
	case <-walking:
	case <-time.After(30 * time.Second):
		t.Fatal("blocker never started")
	}

	// Queue depth 2: the campaign's base + first module fit, the second
	// module must fail with ErrQueueFull and roll everything back.
	_, err = svc.SubmitCampaign(context.Background(), CampaignSpec{Base: serviceSpec("camp", 50, 5)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("campaign on a full queue = %v, want ErrQueueFull", err)
	}
	if got := len(svc.Campaigns()); got != 0 {
		t.Fatalf("%d campaigns registered after rollback", got)
	}
	cancelBlocker()
	// The rolled-back campaign jobs must settle cancelled, not run to done.
	settled := time.After(30 * time.Second)
	for _, snap := range svc.Jobs() {
		j, err := svc.job(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.doneCh:
		case <-settled:
			t.Fatal("jobs never settled after rollback")
		}
		if snap := j.snapshot(); snap.ID != blocker && snap.Status == JobDone {
			t.Fatalf("rolled-back campaign job %s ran to completion", snap.ID)
		}
	}
}

// TestCampaignCancellation cancels a long campaign mid-flight and checks the
// aggregate status and result error.
func TestCampaignCancellation(t *testing.T) {
	d, err := NewDeployer(83)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(d, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	id, err := svc.SubmitCampaign(context.Background(), CampaignSpec{Base: serviceSpec("slow", 100000, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.CancelCampaign(id); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CampaignResult(context.Background(), id); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign result = %v, want context.Canceled", err)
	}
	snap, err := svc.CampaignStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status != JobCanceled {
		t.Fatalf("cancelled campaign status %s, want canceled", snap.Status)
	}
}

// TestMismatchedScenarioSourceFailsCleanly checks the submission-time probe:
// a scenario source built over a different market must fail the job with a
// clear error instead of panicking a worker goroutine.
func TestMismatchedScenarioSourceFailsCleanly(t *testing.T) {
	d, err := NewDeployer(89)
	if err != nil {
		t.Fatal(err)
	}
	spec := serviceSpec("mismatch", 10, 1)
	thin := spec.Market
	thin.Equities = nil // a market with no equity driver
	gen, err := stochastic.NewGenerator(thin)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scenarios = stochastic.NewSet(gen, 1)
	if _, err := d.RunSimulation(context.Background(), spec); err == nil ||
		!strings.Contains(err.Error(), "scenario source") {
		t.Fatalf("mismatched source = %v, want a scenario-source error", err)
	}

	// Through the service the job must settle failed, not crash the worker.
	svc, err := NewService(d, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := svc.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Result(context.Background(), id); err == nil {
		t.Fatal("mismatched source job reported success")
	}
	snap, err := svc.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status != JobFailed {
		t.Fatalf("status %s, want failed", snap.Status)
	}
}
