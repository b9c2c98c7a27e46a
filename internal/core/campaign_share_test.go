package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"disarcloud/internal/alm"
	"disarcloud/internal/eeb"
	"disarcloud/internal/fund"
	"disarcloud/internal/grid"
	"disarcloud/internal/leakcheck"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
	"disarcloud/internal/stress"
)

// fxShock is the standard formula's currency module.
func fxShock(t *testing.T) stress.Shock {
	t.Helper()
	for _, sh := range stress.StandardFormula() {
		if sh.Module == stress.Currency {
			return sh
		}
	}
	t.Fatal("no currency module in the standard formula")
	return stress.Shock{}
}

// foreignSpec is serviceSpec over a market with one currency and a fund
// whose equity sleeve is denominated in it.
func foreignSpec(name string, outer int, seed uint64) SimulationSpec {
	spec := serviceSpec(name, outer, seed)
	spec.Market.Currencies = []stochastic.GBMParams{{S0: 1.1, Mu: 0.01, Sigma: 0.08}}
	spec.Fund = fund.TypicalItalianFund(4, spec.Market)
	spec.Fund.Assets = slices.Clone(spec.Fund.Assets)
	for i, a := range spec.Fund.Assets {
		if a.Kind == fund.Equity {
			spec.Fund.Assets[i].Currency = 1
		}
	}
	return spec
}

// equityFreeSpec is serviceSpec over a fund of bonds only, on the same
// market (which still has an equity index).
func equityFreeSpec(name string, outer int, seed uint64) SimulationSpec {
	spec := serviceSpec(name, outer, seed)
	spec.Fund = fund.Config{
		Name: "bonds",
		Assets: []fund.Asset{
			{Kind: fund.GovernmentBond, Weight: 0.7, Maturity: 6},
			{Kind: fund.CorporateBond, Weight: 0.3, Maturity: 4, LossGivenDefault: 0.6},
		},
		TargetReturn: 0.02, SmoothingFraction: 0.5, MaxBuffer: 0.08,
	}
	return spec
}

// countWalks installs a deployer hook counting the valuations actually
// walked (not shared).
func countWalks(d *Deployer) *atomic.Int32 {
	var n atomic.Int32
	d.hook = func(point string) {
		if point == "walk" {
			n.Add(1)
		}
	}
	return &n
}

// walkRunner is a BlockRunner that records which scenario transform every
// walk it is handed was for, and walks it on the in-process grid.
type walkRunner struct {
	mu    sync.Mutex
	walks map[stochastic.Transform]int
}

func (r *walkRunner) RunBlocks(ctx context.Context, req BlockRunRequest) (map[string]*alm.Result, error) {
	r.mu.Lock()
	r.walks[eeb.TypeB(req.Blocks)[0].ScenarioRef.Transform]++
	r.mu.Unlock()
	return (&grid.Master{Workers: req.Workers, Seed: req.Seed, OnProgress: req.OnProgress}).Run(ctx, req.Blocks)
}

// assertSameBits fails unless got holds want's blocks with every number
// equal bit for bit.
func assertSameBits(t *testing.T, label string, got, want map[string]*alm.Result) {
	t.Helper()
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%s: %d blocks, want %d", label, len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		if g == nil {
			t.Fatalf("%s: block %s missing", label, id)
		}
		if !bits(g.BEL, w.BEL) || !bits(g.SCR, w.SCR) || !bits(g.StdErr, w.StdErr) ||
			!slices.EqualFunc(g.Y1, w.Y1, bits) || !slices.EqualFunc(g.DiscountedY1, w.DiscountedY1, bits) {
			t.Fatalf("%s: block %s differs: BEL %v vs %v", label, id, g.BEL, w.BEL)
		}
	}
}

// assertDone fails unless the job completed with all of its paths counted.
func assertDone(t *testing.T, label string, j *job) *SimulationReport {
	t.Helper()
	rep, err := awaitJob(context.Background(), j)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	snap := j.snapshot()
	if snap.Status != JobDone || snap.Total == 0 || snap.Done != snap.Total {
		t.Fatalf("%s: %s with %d of %d paths", label, snap.Status, snap.Done, snap.Total)
	}
	return rep
}

// walkAlone values spec by itself on a fresh deployer, sharing nothing —
// what the campaign computed for it before modules shared walks.
func walkAlone(t *testing.T, spec SimulationSpec) map[string]*alm.Result {
	t.Helper()
	d, err := NewDeployer(1)
	if err != nil {
		t.Fatal(err)
	}
	spec.shared, spec.OnProgress = nil, nil
	rep, err := d.RunSimulation(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Results
}

// TestSharesMarketDecidesFromInputs is the decision table: a module rides
// the base's walk only when its shock leaves the market model alone and
// moves only drivers neither the fund nor the liabilities (nor, when
// proxied, the regression features) read. A decrement shock rides, except
// on a proxied base, whose model seeds hash the block IDs riders alias.
func TestSharesMarketDecidesFromInputs(t *testing.T) {
	plain, foreign, bonds := serviceSpec("p", 10, 1), foreignSpec("f", 10, 1), equityFreeSpec("b", 10, 1)
	proxied := bonds
	proxied.Proxy = &ProxySpec{}
	govtOnly := bonds
	govtOnly.Fund.Assets = []fund.Asset{{Kind: fund.GovernmentBond, Weight: 1, Maturity: 6}}
	interest := stress.Shock{Module: stress.InterestUp, Market: stochastic.Transform{RateShift: stress.InterestShift}}
	equity := stress.Shock{Module: stress.Equity, Market: stochastic.Transform{EquityFactor: stress.EquityShockFactor}}
	credit := stress.Shock{Module: stress.Spread, Market: stochastic.Transform{CreditFactor: stress.SpreadIntensityFactor}}
	mortality := stress.Shock{Module: stress.Mortality, Biometric: eeb.Biometric{MortalityFactor: stress.MortalityShockFactor}}
	lapse := stress.Shock{Module: stress.Lapse, Biometric: eeb.Biometric{LapseFactor: stress.LapseShockFactor}}
	fx := fxShock(t)
	fxMortality := stress.Shock{Module: "fx+mortality", Market: fx.Market, Biometric: mortality.Biometric}
	for _, tc := range []struct {
		name  string
		base  SimulationSpec
		shock stress.Shock
		want  bool
	}{
		{"fx on a domestic fund", plain, fx, true},
		{"fx on a foreign sleeve", foreign, fx, false},
		{"equity on an equity fund", plain, equity, false},
		{"equity on a bond fund", bonds, equity, true},
		{"equity on a proxied bond fund", proxied, equity, false},
		{"fx on a proxied bond fund", proxied, fx, true},
		{"spread", plain, credit, false},
		{"credit on a government-bond fund", govtOnly, credit, false},
		{"interest up", plain, interest, false},
		{"rate shift", bonds, stress.Shock{Module: stress.InterestUp, Market: stochastic.Transform{RateShift: 1e-30}}, false},
		{"mortality", plain, mortality, true},
		{"lapse", plain, lapse, true},
		{"longevity", plain, stress.LongevityShock(), true},
		{"mortality with fx on a domestic fund", plain, fxMortality, true},
		{"mortality with fx on a foreign sleeve", foreign, fxMortality, false},
		{"mortality on a proxied base", proxied, mortality, false},
		{"identity", plain, stress.Shock{Module: "noop"}, true},
	} {
		if got := sharesMarket(tc.base, tc.shock); got != tc.want {
			t.Errorf("%s: sharesMarket = %v, want %v", tc.name, got, tc.want)
		}
	}
	var modules []stress.Module
	for _, sh := range stress.StandardFormula() {
		if sharesMarket(plain, sh) {
			modules = append(modules, sh.Module)
		}
	}
	if want := []stress.Module{stress.Currency, stress.Mortality, stress.Lapse}; !slices.Equal(modules, want) {
		t.Errorf("the default campaign rides the base's walk with %v, want %v", modules, want)
	}
}

// TestCampaignFXSharesTheBaseWalk: in the default campaign the fx module is
// deployed, recorded and reported like every module, but never walked — its
// per-block results are the base's bits, which are what walking it alone
// gives.
func TestCampaignFXSharesTheBaseWalk(t *testing.T) {
	runner := &walkRunner{walks: map[stochastic.Transform]int{}}
	d, err := NewDeployer(97, WithBlockRunner(runner))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(d, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	cs := CampaignSpec{Base: serviceSpec("share", 20, 19)}
	id, err := svc.SubmitCampaign(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.CampaignResult(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	fx := fxShock(t)
	shocks := stress.StandardFormula()
	if got := runner.walks[fx.Market]; got != 0 {
		t.Fatalf("the fx module was walked %d times", got)
	}
	for _, sh := range shocks {
		if sh.Market != fx.Market && runner.walks[sh.Market] == 0 {
			t.Fatalf("module %s was never walked", sh.Module)
		}
	}
	total := 0
	for _, n := range runner.walks {
		total += n
	}
	// One walk per distinct market: interest up, interest down, equity,
	// spread, and the base's, which fx, mortality and lapse ride.
	if total != 5 {
		t.Fatalf("%d walks for a campaign of %d jobs, want 5", total, 1+len(shocks))
	}
	if got, want := d.KB().Len(), 1+len(shocks); got != want {
		t.Fatalf("KB grew by %d samples, want %d (every module is still deployed)", got, want)
	}
	snap, err := svc.CampaignStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1+len(shocks) {
		t.Fatalf("campaign tracks %d jobs, want %d", len(snap.Jobs), 1+len(shocks))
	}

	base, err := svc.Result(ctx, rep.BaseJob)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Modules {
		if m.Module != stress.Currency {
			continue
		}
		fxSnap, err := svc.Status(m.Job)
		if err != nil {
			t.Fatal(err)
		}
		if fxSnap.Status != JobDone || fxSnap.Total == 0 || fxSnap.Done != fxSnap.Total {
			t.Fatalf("fx job %s with %d of %d paths", fxSnap.Status, fxSnap.Done, fxSnap.Total)
		}
		fxRep, err := svc.Result(ctx, m.Job)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, "fx vs base", fxRep.Results, base.Results)
		if fxRep.Deploy == nil || fxRep.Deploy == base.Deploy || m.DeltaBEL != 0 {
			t.Fatalf("fx module: deploy %p (base %p), delta %v", fxRep.Deploy, base.Deploy, m.DeltaBEL)
		}
		gen, err := stochastic.NewGenerator(cs.Base.Market)
		if err != nil {
			t.Fatal(err)
		}
		_, specs := campaignSpecs(cs, []stress.Shock{fx}, gen, nil)
		assertSameBits(t, "fx walked alone vs base", walkAlone(t, specs[0]), base.Results)
		return
	}
	t.Fatal("no fx module in the report")
}

// TestCampaignForeignSleeveStillWalksFX: once a sleeve is denominated
// abroad, the currency shock reaches the fund and the fx module walks — and
// differs from base.
func TestCampaignForeignSleeveStillWalksFX(t *testing.T) {
	d, err := NewDeployer(101)
	if err != nil {
		t.Fatal(err)
	}
	walks := countWalks(d)
	svc, err := NewService(d, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	id, err := svc.SubmitCampaign(ctx, CampaignSpec{Base: foreignSpec("foreign", 20, 23), Shocks: []stress.Shock{fxShock(t)}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.CampaignResult(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := walks.Load(); got != 2 {
		t.Fatalf("%d walks for base + fx over a foreign sleeve, want 2", got)
	}
	if m := rep.Modules[0]; m.BEL == rep.BaseBEL {
		t.Fatalf("fx BEL %v equals base BEL over a foreign sleeve", m.BEL)
	}
}

// TestCampaignEquityShockOnEquityFreeFundShares: an equity shock on a fund
// with no equity sleeve moves nothing the valuation reads, so it shares the
// base's walk and charges nothing.
func TestCampaignEquityShockOnEquityFreeFundShares(t *testing.T) {
	d, err := NewDeployer(103)
	if err != nil {
		t.Fatal(err)
	}
	walks := countWalks(d)
	svc, err := NewService(d, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	shocks := []stress.Shock{{Module: stress.Equity, Market: stochastic.Transform{EquityFactor: stress.EquityShockFactor}}}
	id, err := svc.SubmitCampaign(ctx, CampaignSpec{Base: equityFreeSpec("eqfree", 20, 29), Shocks: shocks})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.CampaignResult(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := walks.Load(); got != 1 {
		t.Fatalf("%d walks for base + an equity shock on a bond fund, want 1", got)
	}
	if m := rep.Modules[0]; m.BEL != rep.BaseBEL || m.DeltaBEL != 0 {
		t.Fatalf("equity module BEL %v delta %v, base BEL %v", m.BEL, m.DeltaBEL, rep.BaseBEL)
	}
	if got := d.KB().Len(); got != 1+len(shocks) {
		t.Fatalf("KB grew by %d samples, want %d", got, 1+len(shocks))
	}
}

// sharedSpecs builds the base's spec and the riders' of a campaign over
// base whose every shock rides the base's walk, for tests that submit them
// by hand.
func sharedSpecs(t *testing.T, base SimulationSpec, shocks ...stress.Shock) (SimulationSpec, []SimulationSpec) {
	t.Helper()
	gen, err := stochastic.NewGenerator(base.Market)
	if err != nil {
		t.Fatal(err)
	}
	baseSpec, riders := campaignSpecs(CampaignSpec{Base: base}, shocks, gen, nil)
	for k, r := range riders {
		if baseSpec.shared == nil || r.shared != baseSpec.shared {
			t.Fatalf("%s does not ride the base's walk", shocks[k].Module)
		}
	}
	return baseSpec, riders
}

// sharedPair builds the base and fx jobs' specs of a one-module campaign,
// sharing one walk, for tests that submit them by hand.
func sharedPair(t *testing.T, name string, outer int, seed uint64) (base, fx SimulationSpec) {
	t.Helper()
	base, riders := sharedSpecs(t, serviceSpec(name, outer, seed), fxShock(t))
	return base, riders[0]
}

// TestCampaignSharedWalkEitherStartOrder: on a one-worker pool, whichever
// of base and fx runs first walks and the other takes its results; neither
// order can leave a job waiting on one that is still queued.
func TestCampaignSharedWalkEitherStartOrder(t *testing.T) {
	for _, fxFirst := range []bool{false, true} {
		d, err := NewDeployer(107)
		if err != nil {
			t.Fatal(err)
		}
		walks := countWalks(d)
		svc, err := NewService(d, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		base, fx := sharedPair(t, "order", 20, 31)
		order := []SimulationSpec{base, fx}
		if fxFirst {
			order = []SimulationSpec{fx, base}
		}
		var jobs []*job
		for _, spec := range order {
			j, err := svc.submitJob(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		first := assertDone(t, "first job", jobs[0])
		second := assertDone(t, "second job", jobs[1])
		svc.Close()
		if got := walks.Load(); got != 1 {
			t.Fatalf("fx first %v: %d walks, want 1", fxFirst, got)
		}
		assertSameBits(t, "second vs first", second.Results, first.Results)
		if second.Deploy == first.Deploy {
			t.Fatal("the two jobs share a deploy record")
		}
	}
}

// TestCampaignCancelledBaseLeavesFXTerminal: fx waits on the walk base is
// running; cancelling base fails that walk, and fx — whose own context is
// live — walks itself instead of inheriting the cancellation. Cancelling
// both leaves both terminal. Either way no goroutine outlives the service.
func TestCampaignCancelledBaseLeavesFXTerminal(t *testing.T) {
	for _, cancelFX := range []bool{false, true} {
		noLeak := leakcheck.Goroutines(t)
		d, err := NewDeployer(109)
		if err != nil {
			t.Fatal(err)
		}
		// Park the first walk — base's — until released.
		var walks atomic.Int32
		parked, gate := make(chan struct{}), make(chan struct{})
		d.hook = func(point string) {
			if point == "walk" && walks.Add(1) == 1 {
				close(parked)
				<-gate
			}
		}
		svc, err := NewService(d, WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		base, fx := sharedPair(t, "cancel", 30, 37)
		ctx := context.Background()
		baseJob, err := svc.submitJob(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		<-parked
		fxJob, err := svc.submitJob(ctx, fx)
		if err != nil {
			t.Fatal(err)
		}
		// fx has deployed (its sample is in): it is at, or on its way to, the
		// walk base holds.
		pollUntil(t, "the fx job to deploy", func() bool { return d.KB().Len() == 2 })
		baseJob.cancel()
		if cancelFX {
			fxJob.cancel()
		}
		close(gate)

		if _, err := awaitJob(ctx, baseJob); err == nil || baseJob.snapshot().Status != JobCanceled {
			t.Fatalf("cancelled base: %v, %s", err, baseJob.snapshot().Status)
		}
		if cancelFX {
			if _, err := awaitJob(ctx, fxJob); err == nil || fxJob.snapshot().Status != JobCanceled {
				t.Fatalf("cancelled fx: %v, %s", err, fxJob.snapshot().Status)
			}
		} else {
			rep := assertDone(t, "fx after its base was cancelled", fxJob)
			if got := walks.Load(); got != 2 {
				t.Fatalf("%d walks, want 2 (the cancelled one and fx's own)", got)
			}
			assertSameBits(t, "fx vs base walked alone", rep.Results, walkAlone(t, base))
		}
		svc.Close()
		noLeak()
	}
}

// twoBlockSpec is serviceSpec over a 30-contract book, which splits into two
// type-B blocks.
func twoBlockSpec(name string, outer int, seed uint64) SimulationSpec {
	spec := serviceSpec(name, outer, seed)
	book := &policy.Portfolio{Name: name}
	for i := range 15 {
		for _, c := range spec.Portfolio.Contracts {
			c.Age += i
			book.Contracts = append(book.Contracts, c)
		}
	}
	spec.Portfolio = book
	return spec
}

// TestCampaignRidersMatchWalkingAlone: a campaign with longevity over a
// two-block book walks once per distinct market — the base's walk prices
// three books, one per decrement basis — and every job's per-block results
// are what walking it alone gives. Every job reports exactly its own paths,
// under its own block IDs: the walker forwards none of the riders' aliased
// blocks, so its Done cannot reach Total early.
func TestCampaignRidersMatchWalkingAlone(t *testing.T) {
	d, err := NewDeployer(113)
	if err != nil {
		t.Fatal(err)
	}
	walks := countWalks(d)
	svc, err := NewService(d, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	const outer = 20
	var (
		mu      sync.Mutex
		events  int
		aliased []string
	)
	cs := CampaignSpec{
		Base:   twoBlockSpec("riders", outer, 41),
		Shocks: append(stress.StandardFormula(), stress.LongevityShock()),
	}
	cs.Base.OnProgress = func(ev grid.Progress) {
		mu.Lock()
		defer mu.Unlock()
		events++
		if ev.BlockID != "riders/B1" && ev.BlockID != "riders/B2" {
			aliased = append(aliased, ev.BlockID)
		}
	}
	id, err := svc.SubmitCampaign(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := svc.campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := stochastic.NewGenerator(cs.Base.Market)
	if err != nil {
		t.Fatal(err)
	}
	base, modules := campaignSpecs(cs, cs.Shocks, gen, nil)
	specs := append([]SimulationSpec{base}, modules...)
	for i, j := range c.all() {
		label := "base"
		if i > 0 {
			label = string(cs.Shocks[i-1].Module)
		}
		rep := assertDone(t, label, j)
		assertSameBits(t, label+" vs walked alone", rep.Results, walkAlone(t, specs[i]))
	}
	if got := walks.Load(); got != 5 {
		t.Fatalf("%d walks for a campaign over 5 distinct markets", got)
	}
	if got := d.KB().Len(); got != len(specs) {
		t.Fatalf("KB grew by %d samples, want %d", got, len(specs))
	}
	mu.Lock()
	defer mu.Unlock()
	if want := len(specs) * 2 * outer; events != want {
		t.Fatalf("%d progress events, want %d (two blocks x %d paths per job)", events, want, outer)
	}
	if len(aliased) > 0 {
		t.Fatalf("subscribers saw %d events of blocks %v", len(aliased), slices.Compact(aliased))
	}
}

// TestCampaignRiderFirstStartOrder: on a one-worker pool, whichever of base
// and a mortality rider runs first walks both books and the other takes its
// own; both are what walking alone gives. A rider that walks reports its
// own paths under its own block ID, never the alias its book walked under.
func TestCampaignRiderFirstStartOrder(t *testing.T) {
	mortality := stress.Shock{Module: stress.Mortality, Biometric: eeb.Biometric{MortalityFactor: stress.MortalityShockFactor}}
	for _, riderFirst := range []bool{true, false} {
		d, err := NewDeployer(127)
		if err != nil {
			t.Fatal(err)
		}
		walks := countWalks(d)
		svc, err := NewService(d, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		base, riders := sharedSpecs(t, serviceSpec("rider", 20, 43), mortality)
		order := []SimulationSpec{base, riders[0]}
		if riderFirst {
			order = []SimulationSpec{riders[0], base}
		}
		var jobs []*job
		events := make([]atomic.Int32, len(order))
		for k, spec := range order {
			spec.OnProgress = func(ev grid.Progress) {
				if ev.BlockID != "rider/B1" {
					t.Errorf("job %d reported block %s", k, ev.BlockID)
				}
				events[k].Add(1)
			}
			j, err := svc.submitJob(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		for k, j := range jobs {
			rep := assertDone(t, "job", j)
			assertSameBits(t, "job vs walked alone", rep.Results, walkAlone(t, order[k]))
			if got := events[k].Load(); got != 20 {
				t.Fatalf("rider first %v: job %d reported %d paths, want 20", riderFirst, k, got)
			}
		}
		svc.Close()
		if got := walks.Load(); got != 1 {
			t.Fatalf("rider first %v: %d walks, want 1", riderFirst, got)
		}
	}
}

// TestCampaignCancelledWalkerLeavesRidersWalking: base's walk carries two
// riders' books; cancelling base fails that walk, and the riders — whose own
// contexts are live — walk the whole set themselves, once between them.
// No goroutine outlives the service.
func TestCampaignCancelledWalkerLeavesRidersWalking(t *testing.T) {
	noLeak := leakcheck.Goroutines(t)
	d, err := NewDeployer(131)
	if err != nil {
		t.Fatal(err)
	}
	// Park the first walk — base's — until released.
	var walks atomic.Int32
	parked, gate := make(chan struct{}), make(chan struct{})
	d.hook = func(point string) {
		if point == "walk" && walks.Add(1) == 1 {
			close(parked)
			<-gate
		}
	}
	svc, err := NewService(d, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	base, riders := sharedSpecs(t, serviceSpec("walker", 30, 47),
		stress.Shock{Module: stress.Mortality, Biometric: eeb.Biometric{MortalityFactor: stress.MortalityShockFactor}},
		stress.Shock{Module: stress.Lapse, Biometric: eeb.Biometric{LapseFactor: stress.LapseShockFactor}})
	ctx := context.Background()
	baseJob, err := svc.submitJob(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	var riderJobs []*job
	for _, spec := range riders {
		j, err := svc.submitJob(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		riderJobs = append(riderJobs, j)
	}
	// The first rider has deployed (its sample is in): it is at, or on its
	// way to, the walk base holds. The second waits for a worker.
	pollUntil(t, "the first rider to deploy", func() bool { return d.KB().Len() == 2 })
	baseJob.cancel()
	close(gate)

	if _, err := awaitJob(ctx, baseJob); err == nil || baseJob.snapshot().Status != JobCanceled {
		t.Fatalf("cancelled base: %v, %s", err, baseJob.snapshot().Status)
	}
	for k, j := range riderJobs {
		rep := assertDone(t, "rider after its walker was cancelled", j)
		assertSameBits(t, "rider vs walked alone", rep.Results, walkAlone(t, riders[k]))
	}
	if got := walks.Load(); got != 2 {
		t.Fatalf("%d walks, want 2 (the cancelled one and the riders' own)", got)
	}
	svc.Close()
	noLeak()
}
