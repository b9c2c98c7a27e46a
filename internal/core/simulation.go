package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"disarcloud/internal/alm"
	"disarcloud/internal/eeb"
	"disarcloud/internal/fund"
	"disarcloud/internal/grid"
	"disarcloud/internal/policy"
	"disarcloud/internal/provision"
	"disarcloud/internal/stochastic"
)

// maxContractsPerBlock is the type-B block granularity RunSimulation splits
// a portfolio into; the Service uses it to size job progress totals.
const maxContractsPerBlock = 25

// SimulationSpec is a complete Solvency II valuation request as the DISAR
// user submits it through the interface: a portfolio backed by a segregated
// fund, the market model, the nested Monte Carlo sample sizes and the
// deadline-driven deploy constraints.
type SimulationSpec struct {
	Portfolio   *policy.Portfolio
	Fund        fund.Config
	Market      stochastic.Config
	Outer       int // n_P real-world scenarios
	Inner       int // n_Q risk-neutral scenarios per outer path
	Constraints provision.Constraints
	// MaxWorkers caps the in-process worker goroutines used for the real
	// valuation; 0 derives it from the selected deploy's total vCPUs,
	// capped at 32.
	MaxWorkers int
	// Seed roots the valuation streams and, for jobs run through a Service,
	// the per-job cloud-noise split.
	Seed uint64
	// PaceFactor, when positive, makes the deploy occupy real wall-clock
	// time: after the simulated cloud reports its execution time, the job
	// blocks for PaceFactor * ActualSeconds of real time (honouring ctx). In
	// the paper's system a service worker spends almost its whole life
	// waiting on the remote cluster; the virtual-time cloud erases that
	// wait, so load experiments (elastic scaling, admission control) set a
	// small factor to restore it. Valuation results are unaffected.
	PaceFactor float64
	// Biometric scales the decrement assumptions — the life side of the
	// Solvency II stresses. The zero value is the best-estimate basis.
	Biometric eeb.Biometric
	// Scenarios, when non-nil, supplies the valuation's scenario paths from
	// a shared or derived scenario set (stress-campaign reuse) instead of
	// generating them fresh from Seed.
	Scenarios stochastic.Source
	// ScenarioRef, when non-nil, is the serializable recipe behind Scenarios
	// — what lets a scenario-sharing job execute on the remote units of a
	// cluster. SubmitCampaign fills it automatically; jobs carrying a live
	// Source with no ref run in-process even on a clustered deployer.
	ScenarioRef *stochastic.Ref
	// OnProgress, when non-nil, receives grid monitoring events as outer
	// paths complete. Calls are serialised by the valuation master.
	OnProgress func(grid.Progress)
	// Proxy, when non-nil, routes the valuation through the LSMC proxy
	// serving tier: each block trains a proxy on a seeded disjoint sample,
	// answers its outer paths through the fast path, and escalates only the
	// predictions whose uncertainty band busts the error budget to the full
	// nested pipeline. The report then carries a ProxyReport.
	Proxy *ProxySpec
	// budget, when non-nil, is the shared accountant this job's deploy
	// draws from. SubmitCampaign attaches the campaign-wide accountant to
	// every module's spec; standalone jobs with Constraints.MaxCost > 0 get
	// a private one inside RunSimulation.
	budget *costAccountant
	// shared, when non-nil, is the walk this job's market takes bit for bit
	// with others: SubmitCampaign hands the base and every module whose
	// shock the walk does not read one sharedWalk, and the walk runs once
	// for them, pricing each one's book under its Biometric.
	shared *sharedWalk
}

// Validate reports whether the spec is well-formed.
func (s SimulationSpec) Validate() error {
	if s.Portfolio == nil {
		return fmt.Errorf("core: simulation without portfolio")
	}
	if err := s.Portfolio.Validate(); err != nil {
		return err
	}
	if s.Outer <= 0 || s.Inner <= 0 {
		return fmt.Errorf("core: non-positive Monte Carlo sample sizes")
	}
	if s.PaceFactor < 0 || math.IsNaN(s.PaceFactor) || math.IsInf(s.PaceFactor, 0) {
		return fmt.Errorf("core: pace factor must be finite and non-negative")
	}
	if err := s.Biometric.Validate(); err != nil {
		return err
	}
	if s.Proxy != nil {
		if err := s.Proxy.Validate(); err != nil {
			return err
		}
	}
	if s.ScenarioRef != nil {
		if err := s.ScenarioRef.Validate(); err != nil {
			return err
		}
	}
	return s.Constraints.Validate()
}

// SimulationReport is the outcome of a transparently deployed valuation:
// the actual Solvency II quantities from the real computation plus the
// cloud-side deploy record.
type SimulationReport struct {
	// Results holds the per-block valuation results keyed by block ID.
	Results map[string]*alm.Result
	// BEL and SCR aggregate the portfolio: sum of block BELs and of block
	// SCRs (a conservative aggregation without inter-block diversification).
	BEL float64
	SCR float64
	// Deploy is the cloud-side record (selection, time, cost, KB growth).
	Deploy *Report
	// Params are the characteristic parameters the deploy was selected on.
	Params eeb.CharacteristicParams
	// Proxy carries the serving telemetry when the job ran through the
	// proxy tier (nil for plain nested valuations).
	Proxy *ProxyReport
	// Cost is the money side of the deploy: billed dollars, the
	// all-on-demand counterfactual, and revocations survived.
	Cost CostReport
}

// aggregateBlock describes the whole simulation as one type-B block — the
// per-simulation characteristic parameters the predictor is trained and
// queried on. RunSimulation and the admission-control estimator must price
// the SAME workload, so both build it here.
func aggregateBlock(spec SimulationSpec, idSuffix string) *eeb.Block {
	return &eeb.Block{
		ID:        spec.Portfolio.Name + idSuffix,
		Type:      eeb.ALMValuation,
		Portfolio: spec.Portfolio,
		Fund:      spec.Fund,
		Market:    spec.Market,
		Outer:     spec.Outer,
		Inner:     spec.Inner,
		Biometric: spec.Biometric,
	}
}

// checkScenarioSource probes a caller-supplied scenario source against the
// market model. A source built over a different market would index missing
// driver paths deep inside the fund evaluation (a panic in a worker
// goroutine); probing one outer path up front turns the mismatch into a
// clean submission-time error. For the memoized sets of a stress campaign
// the probed path is cached, so nothing is wasted.
func checkScenarioSource(src stochastic.Source, market stochastic.Config) error {
	probe := src.Outer(0)
	if got, want := len(probe.Equities), len(market.Equities); got != want {
		return fmt.Errorf("core: scenario source supplies %d equity paths, market has %d", got, want)
	}
	if got, want := len(probe.Currencies), len(market.Currencies); got != want {
		return fmt.Errorf("core: scenario source supplies %d currency paths, market has %d", got, want)
	}
	if got, want := probe.Steps(), market.Horizon*market.StepsPerYear; got < want {
		return fmt.Errorf("core: scenario source paths span %d steps, market horizon needs %d", got, want)
	}
	return nil
}

// RunSimulation performs the paper's end-to-end flow: the interface
// extracts the workload's characteristic parameters, Algorithm 1 picks the
// deploy, the required VMs are activated (virtually), the distributed
// valuation actually runs (in-process, partition-independent), the measured
// time enters the knowledge base and the models retrain.
//
// The context governs the whole flow: cancelling it stops the valuation
// between outer paths and returns ctx.Err(). The regulatory deadline
// Constraints.TmaxSeconds additionally bounds the real wall-clock run — a
// valuation that cannot finish inside it fails with
// context.DeadlineExceeded rather than silently overrunning.
//
// RunSimulation is safe for concurrent use. The valuation results (BEL,
// SCR) and the cloud-side noise stream are deterministic in spec.Seed
// regardless of concurrent-job interleaving; the deploy *selection* may
// still differ across interleavings, because it consults the shared,
// growing knowledge base and the deployer's exploration stream.
func (d *Deployer) RunSimulation(ctx context.Context, spec SimulationSpec) (*SimulationReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Scenarios != nil {
		if err := checkScenarioSource(spec.Scenarios, spec.Market); err != nil {
			return nil, err
		}
	}
	// Huge Tmax values (e.g. 1e18 as an "effectively no deadline" sentinel)
	// would overflow time.Duration into a negative, already-expired timeout;
	// treat anything past the representable range as unbounded.
	if tmax := spec.Constraints.TmaxSeconds; tmax > 0 && tmax < float64(math.MaxInt64)/float64(time.Second) {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(tmax*float64(time.Second)))
		defer cancel()
	}
	// One aggregate type-B block describes the whole simulation for the
	// predictor, mirroring the paper's per-simulation samples.
	whole := aggregateBlock(spec, "/sim")
	if err := whole.Validate(); err != nil {
		return nil, err
	}
	f := whole.Params()

	acct := spec.budget
	if acct == nil {
		// Standalone jobs enforce their own MaxCost with a private
		// accountant; campaign jobs arrive with the shared one attached.
		acct = newCostAccountant(spec.Constraints.MaxCost)
	}
	deployRep, err := d.deployBudgeted(ctx, f, spec.Constraints, spec.Seed, acct)
	if err != nil {
		return nil, err
	}
	// The deploy just recorded this run's execution-time sample and (maybe)
	// retrained on it. If the real valuation below panics — a degenerate
	// spec that slipped past validation, a broken scenario source — that
	// sample describes a run that produced nothing: record it back out of
	// the knowledge base before the panic propagates (the Service's worker
	// guard then converts it into a failed job).
	defer func() {
		if r := recover(); r != nil {
			_ = d.forget(deployRep)
			panic(r)
		}
	}()
	// A clustered deployer ships non-proxy work to its runner. Proxy jobs stay
	// local (the LSMC training set is node-local by design).
	useRunner := d.runner != nil && spec.Proxy == nil
	paceSeconds := spec.PaceFactor * deployRep.ActualSeconds
	if spec.PaceFactor > 0 && !useRunner {
		// Emulate the wall-clock occupancy of the remote execution (outside
		// the deployer lock, so concurrent jobs overlap their waits exactly
		// as concurrent clusters would). Runner-executed jobs skip this: the
		// runner spreads the same occupancy across its units, so N units pace
		// concurrently and the wall-clock cost divides by N.
		pace := time.Duration(paceSeconds * float64(time.Second))
		timer := time.NewTimer(pace)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}

	// Real computation on the DISAR grid, sized like the chosen deploy.
	workers := spec.MaxWorkers
	if workers <= 0 {
		workers = deployRep.Choice.TotalNodes() * deployRep.Choice.Primary().Type.VCPUs
		if workers > 32 {
			workers = 32
		}
	}
	if workers < 1 {
		workers = 1
	}
	blocks, err := eeb.SplitPortfolio(spec.Portfolio, spec.Fund, spec.Market, eeb.SplitSpec{
		MaxContractsPerBlock: maxContractsPerBlock,
		Outer:                spec.Outer,
		Inner:                spec.Inner,
		Biometric:            spec.Biometric,
		Scenarios:            spec.Scenarios,
		ScenarioRef:          spec.ScenarioRef,
		Buffers:              d.buffers,
	})
	if err != nil {
		_ = d.forget(deployRep) // a split that fails produced no valuation
		return nil, err
	}
	// The walk is the only step a job sharing its market may skip: the deploy
	// above, and with it the KB sample and the bill, stay its own. (Under a
	// runner the pacing is part of the walk, and shared with it.)
	results, proxyRep, shared, err := spec.shared.value(ctx, blocks, spec.Biometric, spec.OnProgress, func(walked []*eeb.Block, onProgress func(grid.Progress)) (map[string]*alm.Result, *ProxyReport, error) {
		d.at("walk")
		switch {
		case spec.Proxy != nil:
			return runProxyValuation(ctx, walked, workers, spec.Seed, *spec.Proxy, onProgress)
		case useRunner:
			results, err := d.runner.RunBlocks(ctx, BlockRunRequest{
				Blocks:      walked,
				Seed:        spec.Seed,
				Workers:     workers,
				PaceSeconds: paceSeconds,
				OnProgress:  onProgress,
			})
			return results, nil, err
		default:
			master := &grid.Master{Workers: workers, Seed: spec.Seed, OnProgress: onProgress}
			results, err := master.Run(ctx, walked)
			return results, nil, err
		}
	})
	if shared && spec.OnProgress != nil {
		// Report the shared walk's paths as this job's own, as its own walk
		// would have: one event per outer path of every block.
		onPath := grid.NewProgressCounter(spec.OnProgress).OnPath(eeb.TypeB(blocks))
		for range spec.Outer {
			onPath()
		}
	}
	if err != nil {
		// A crashed valuation (a worker-rank panic surfaces here as an
		// error) must also retract the sample — but a cancellation keeps
		// it: the simulated execution finished and its timing is sound, the
		// caller just stopped waiting.
		if ctx.Err() == nil {
			_ = d.forget(deployRep)
		}
		return nil, err
	}

	rep := &SimulationReport{Results: results, Deploy: deployRep, Params: f, Proxy: proxyRep}
	rep.Cost.add(deployRep)
	if acct != nil {
		rep.Cost.BudgetUSD = acct.limit
		rep.Cost.RemainingUSD = acct.remaining()
	}
	// Sum in sorted block-ID order: float addition is not associative, so
	// map-iteration order would let the totals' last bits vary run to run.
	ids := make([]string, 0, len(results))
	for id := range results {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rep.BEL += results[id].BEL
		rep.SCR += results[id].SCR
	}
	return rep, nil
}
