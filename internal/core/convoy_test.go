package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disarcloud/internal/cloud"
	"disarcloud/internal/leakcheck"
	"disarcloud/internal/provision"
	"disarcloud/internal/stochastic"
)

// The convoy tests are deterministic by construction: nothing sleeps. A
// convoy is formed either by holding d.mu from the test until every deploy
// is counted in flight, or by parking one deploy at the "candidates" hook —
// counted, not yet at the mutex — until the others have handed off to it.

const convoyProcs = 4 // the convoy cap the tests run under, whatever the box

// setProcs pins GOMAXPROCS, and with it the convoy cap, for the test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// warmDeployer returns a deployer over the first archs catalog entries with
// 20 bootstrap samples on each, every suite trained.
func warmDeployer(t *testing.T, seed uint64, archs int) *Deployer {
	t.Helper()
	d, err := NewDeployer(seed, WithCatalog(cloud.Catalog()[:archs]))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Bootstrap(context.Background(), workloadMix(), 20, 6); err != nil {
		t.Fatal(err)
	}
	return d
}

// pollUntil spins, yielding, until cond holds.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// inFlight reports whether exactly n sections are counted.
func inFlight(d *Deployer, n int) func() bool {
	return func() bool { return d.inFlight.Load() == int32(n) }
}

// holdDeploys holds d.mu, starts n goroutines running run(i), waits until
// all n are counted in flight and releases the mutex. The returned wait
// gives their errors once all have returned.
func holdDeploys(t *testing.T, d *Deployer, n int, run func(i int) error) (wait func() []error) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	d.mu.Lock()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(i)
		}()
	}
	pollUntil(t, "every deploy to be in flight", inFlight(d, n))
	d.mu.Unlock()
	return func() []error {
		wg.Wait()
		return errs
	}
}

func seededDeploy(d *Deployer) func(i int) error {
	mix := workloadMix()
	return func(i int) error {
		_, err := d.DeploySeeded(context.Background(), mix[i%len(mix)], constraints(), uint64(500+i))
		return err
	}
}

func assertAllNil(t *testing.T, errs []error) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
}

// TestConvoyTrainsOnce: a full convoy on one architecture is one generation,
// and the suite it installs is the one a retrain on the final KB produces.
func TestConvoyTrainsOnce(t *testing.T) {
	setProcs(t, convoyProcs)
	const seed = 61
	d := warmDeployer(t, seed, 1)
	size, gens := d.KB().Len(), d.Predictor().Generations()
	assertAllNil(t, holdDeploys(t, d, convoyProcs, seededDeploy(d))())
	if got := d.KB().Len() - size; got != convoyProcs {
		t.Fatalf("KB grew by %d samples, want %d", got, convoyProcs)
	}
	if got := d.Predictor().Generations() - gens; got != 1 {
		t.Fatalf("%d deploys in one convoy took %d generations, want 1", convoyProcs, got)
	}
	assertPredictorMatchesKB(t, d, seed)
}

// TestConvoyAcrossArchitectures: members that land on different
// architectures still share one leader, which takes one generation per
// dirty architecture and trains each.
func TestConvoyAcrossArchitectures(t *testing.T) {
	setProcs(t, convoyProcs)
	const seed = 62
	d := warmDeployer(t, seed, 6)
	gens := d.Predictor().Generations()
	cat, mix := cloud.Catalog(), workloadMix()
	lands := []int{0, 1, 2, 0} // three distinct architectures over four members
	assertAllNil(t, holdDeploys(t, d, len(lands), func(i int) error {
		_, err := d.DeployManual(context.Background(), cat[lands[i]].Name, 1+i, mix[i])
		return err
	})())
	if got := d.Predictor().Generations() - gens; got != 3 {
		t.Fatalf("a convoy over three architectures took %d generations, want 3", got)
	}
	assertPredictorMatchesKB(t, d, seed)
}

// parkFirst installs a hook that parks the first deploy to reach its
// "candidates" point — counted in flight, not yet at the mutex — until the
// returned release is called; after release, that deploy panics at point
// panicAt ("" = never). Later deploys pass through. parked reports whether
// the first deploy has reached the hook: being counted is not enough, since
// a deploy started after it may overtake it to the hook and be the one
// parked.
func parkFirst(d *Deployer, panicAt string) (parked func() bool, release func()) {
	var first, released atomic.Bool
	gate := make(chan struct{})
	d.hook = func(point string) {
		if first.CompareAndSwap(false, true) {
			<-gate
			if panicAt == "candidates" {
				panic("convoy test: deliberate panic before the mutex")
			}
			return
		}
		// Every other section has left by the time the gate opens, so the
		// next one is the parked deploy's.
		if point == "section" && panicAt == "section" && released.Load() {
			panic("convoy test: deliberate panic inside the section")
		}
	}
	return first.Load, func() {
		released.Store(true)
		close(gate)
	}
}

// followersBehindParked starts the last member (to be parked by the hook
// parkFirst installed), waits until it is, then starts n followers, and
// returns once every follower has handed off to it. The caller releases the
// parked member and then calls wait, which returns the followers' errors.
func followersBehindParked(t *testing.T, d *Deployer, n int, parked func() bool, last func()) (wait func() []error) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last()
	}()
	pollUntil(t, "the last member to park", parked)
	size := d.KB().Len()
	errs := make([]error, n)
	run := seededDeploy(d)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(i)
		}()
	}
	// A follower is counted before it records, so n new samples say all n
	// were counted, and a count back at one that all n have left.
	pollUntil(t, "every follower to hand off", func() bool {
		return d.KB().Len() == size+n && d.inFlight.Load() == 1
	})
	return func() []error {
		wg.Wait()
		return errs
	}
}

// TestConvoyLastMemberFails: the member that leaves last leads even when its
// own section failed — it returns its own error, the followers return nil
// with their samples learned.
func TestConvoyLastMemberFails(t *testing.T) {
	setProcs(t, convoyProcs)
	const seed = 63
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	broke := newCostAccountant(1)
	broke.spent = 2
	var budgetErr *BudgetError
	for _, tc := range []struct {
		name string
		last func(d *Deployer) error
		is   func(error) bool
	}{
		{"invalid constraints", func(d *Deployer) error {
			_, err := d.DeploySeeded(context.Background(), workload(), provision.Constraints{TmaxSeconds: -1, MaxNodes: 6}, 1)
			return err
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "Tmax must be positive") }},
		{"cancelled ctx", func(d *Deployer) error {
			_, err := d.DeploySeeded(cancelled, workload(), constraints(), 1)
			return err
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"exhausted budget", func(d *Deployer) error {
			_, err := d.deployBudgeted(context.Background(), workload(), constraints(), 1, broke)
			return err
		}, func(err error) bool { return errors.As(err, &budgetErr) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := warmDeployer(t, seed, 1)
			size, gens := d.KB().Len(), d.Predictor().Generations()
			parked, release := parkFirst(d, "")
			var lastErr error
			wait := followersBehindParked(t, d, convoyProcs-1, parked, func() { lastErr = tc.last(d) })
			release()
			assertAllNil(t, wait())
			if !tc.is(lastErr) {
				t.Fatalf("the failing member returned %v", lastErr)
			}
			if got := d.KB().Len() - size; got != convoyProcs-1 {
				t.Fatalf("KB grew by %d samples, want %d", got, convoyProcs-1)
			}
			if got := d.Predictor().Generations() - gens; got != 1 {
				t.Fatalf("the failed leader took %d generations, want 1", got)
			}
			assertPredictorMatchesKB(t, d, seed)
		})
	}
}

// TestConvoyCapBoundsTheWait: 3 x GOMAXPROCS held deploys are three convoys
// and three generations, and no member waits on a convoy after its own —
// with one leader held at its training, exactly the other two convoys'
// members return.
func TestConvoyCapBoundsTheWait(t *testing.T) {
	setProcs(t, convoyProcs)
	const seed, n = 64, 3 * convoyProcs
	d := warmDeployer(t, seed, 1)
	size, gens := d.KB().Len(), d.Predictor().Generations()
	var leaders, returned atomic.Int32
	gate := make(chan struct{})
	d.hook = func(point string) {
		if point == "train" && leaders.Add(1) == 3 {
			<-gate // the third leader to get here trains last
		}
	}
	run := seededDeploy(d)
	wait := holdDeploys(t, d, n, func(i int) error {
		defer returned.Add(1)
		return run(i)
	})
	pollUntil(t, "the two other convoys to return", func() bool { return returned.Load() == 2*convoyProcs })
	close(gate)
	assertAllNil(t, wait())
	if got := d.KB().Len() - size; got != n {
		t.Fatalf("KB grew by %d samples, want %d", got, n)
	}
	if got := d.Predictor().Generations() - gens; got != 3 {
		t.Fatalf("%d held deploys took %d generations, want 3", n, got)
	}
	assertPredictorMatchesKB(t, d, seed)
}

// TestForgetJoinsAConvoy: a retraction with a deploy in flight behind it
// hands its architecture over like any other section and returns once the
// leader has retrained it; one that leaves the architecture below the
// training threshold drops the suite on the spot and waits for nobody.
func TestForgetJoinsAConvoy(t *testing.T) {
	setProcs(t, convoyProcs)
	const seed = 65
	ctx := context.Background()

	t.Run("retrained by the leader", func(t *testing.T) {
		d := warmDeployer(t, seed, 1)
		arch := cloud.Catalog()[0].Name
		rep, err := d.DeployManual(ctx, arch, 3, workload())
		if err != nil {
			t.Fatal(err)
		}
		size, gens := d.KB().Len(), d.Predictor().Generations()
		parked, release := parkFirst(d, "")
		var wg sync.WaitGroup
		var lastErr, forgetErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, lastErr = d.DeploySeeded(ctx, workload(), constraints(), 9)
		}()
		pollUntil(t, "the last member to park", parked)
		wg.Add(1)
		go func() {
			defer wg.Done()
			forgetErr = d.forget(rep)
		}()
		pollUntil(t, "forget to hand off", func() bool { return d.KB().Len() == size-1 && d.inFlight.Load() == 1 })
		if got := d.Predictor().Generations(); got != gens {
			t.Fatalf("forget took a generation (%d -> %d) with a deploy in flight behind it", gens, got)
		}
		release()
		wg.Wait()
		if lastErr != nil || forgetErr != nil {
			t.Fatalf("deploy: %v, forget: %v", lastErr, forgetErr)
		}
		if got := d.Predictor().Generations() - gens; got != 1 {
			t.Fatalf("the convoy took %d generations, want 1", got)
		}
		assertPredictorMatchesKB(t, d, seed)
	})

	t.Run("dropped below the threshold", func(t *testing.T) {
		d, err := NewDeployer(seed)
		if err != nil {
			t.Fatal(err)
		}
		const arch = "c4.4xlarge"
		mix := workloadMix()
		var rep *Report
		for i := 0; i < provision.MinSamplesToTrain; i++ {
			if rep, err = d.DeployManual(ctx, arch, 1+i%6, mix[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !d.Predictor().Trained(arch) {
			t.Fatalf("%s untrained at the threshold", arch)
		}
		parked, release := parkFirst(d, "")
		done := make(chan error)
		go func() {
			_, err := d.DeploySeeded(ctx, workload(), constraints(), 9)
			done <- err
		}()
		pollUntil(t, "the last member to park", parked)
		// Not a follower: it returns with the deploy behind it still parked.
		forgot := make(chan error, 1)
		go func() { forgot <- d.forget(rep) }()
		pollUntil(t, "forget to return without waiting", func() bool {
			select {
			case err = <-forgot:
				return true
			default:
				return false
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if d.Predictor().Trained(arch) {
			t.Fatalf("%s still predicts from a retracted sample", arch)
		}
		release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		assertPredictorMatchesKB(t, d, seed)
	})
}

// TestConvoySurvivesAPanickingLeader: the member everyone handed off to
// panics — before the mutex, in its candidates, or inside its section. The
// followers still return with trained models, the panic reaches its caller,
// the count does not leak (the next sequential deploy leads and trains), a
// valuation that panics after its deploy still has its sample retracted,
// and no goroutine outlives the scenario.
func TestConvoySurvivesAPanickingLeader(t *testing.T) {
	setProcs(t, convoyProcs)
	const seed = 66
	ctx := context.Background()
	for _, point := range []string{"candidates", "section"} {
		t.Run(point, func(t *testing.T) {
			d := warmDeployer(t, seed, 1)
			noLeak := leakcheck.Goroutines(t)
			size, gens := d.KB().Len(), d.Predictor().Generations()

			parked, release := parkFirst(d, point)
			var recovered any
			wait := followersBehindParked(t, d, convoyProcs-1, parked, func() {
				defer func() { recovered = recover() }()
				_, _ = d.DeploySeeded(ctx, workload(), constraints(), 1)
			})
			release()
			assertAllNil(t, wait())
			d.hook = nil
			if recovered == nil {
				t.Fatal("the panic did not reach the panicking deploy's caller")
			}
			if got := d.inFlight.Load(); got != 0 {
				t.Fatalf("%d sections still counted in flight", got)
			}
			if got := d.KB().Len() - size; got != convoyProcs-1 {
				t.Fatalf("KB grew by %d samples, want %d", got, convoyProcs-1)
			}
			if got := d.Predictor().Generations() - gens; got != 1 {
				t.Fatalf("the panicking leader took %d generations, want 1", got)
			}
			assertPredictorMatchesKB(t, d, seed)

			// A valuation that panics after its deploy: sample retracted.
			size = d.KB().Len()
			spec := serviceSpec("poison", 10, 6)
			gen, err := stochastic.NewGenerator(spec.Market)
			if err != nil {
				t.Fatal(err)
			}
			spec.Scenarios = panicSource{inner: stochastic.NewPathSource(gen, spec.Seed)}
			if _, err := d.RunSimulation(ctx, spec); err == nil {
				t.Fatal("a panicking valuation reported success")
			}
			if got := d.KB().Len(); got != size {
				t.Fatalf("KB went from %d to %d samples over a panicked valuation", size, got)
			}
			assertPredictorMatchesKB(t, d, seed)

			// The next sequential deploy leads, alone, and trains.
			gens = d.Predictor().Generations()
			if _, err := d.DeploySeeded(ctx, workload(), constraints(), 2); err != nil {
				t.Fatal(err)
			}
			if got := d.Predictor().Generations() - gens; got != 1 {
				t.Fatalf("the sequential deploy after the panic took %d generations, want 1", got)
			}
			assertPredictorMatchesKB(t, d, seed)

			noLeak()
		})
	}
}
