package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"disarcloud/internal/alm"
	"disarcloud/internal/eeb"
	"disarcloud/internal/grid"
	"disarcloud/internal/stochastic"
	"disarcloud/internal/stress"
)

// CampaignID identifies one submitted stress campaign within a Service.
type CampaignID string

// ErrUnknownCampaign is returned when a CampaignID does not name a campaign
// of this service (including campaigns evicted past the retention cap).
var ErrUnknownCampaign = errors.New("core: unknown campaign")

// CampaignSpec describes a Solvency II stress campaign: one base valuation
// fanned into shocked revaluations whose per-module delta-BEL aggregates
// into the standard-formula SCR.
type CampaignSpec struct {
	// Base is the best-estimate valuation every module shocks. Its Scenarios
	// field must be nil: the campaign owns scenario sourcing.
	Base SimulationSpec
	// Shocks are the stress modules; nil selects stress.StandardFormula().
	Shocks []stress.Shock
	// NoScenarioReuse makes every job regenerate its paths instead of
	// deriving them from the campaign's shared base set — the
	// N-independent-valuations baseline that scenario-set reuse is
	// benchmarked against. Results are identical either way.
	NoScenarioReuse bool
}

// ModuleResult is the outcome of one shocked revaluation.
type ModuleResult struct {
	Module stress.Module
	Job    JobID
	// BEL is the best-estimate liability under the module's shock.
	BEL float64
	// DeltaBEL is the module's capital charge: shocked minus base BEL,
	// floored at zero.
	DeltaBEL float64
}

// CampaignReport is the terminal outcome of a campaign.
type CampaignReport struct {
	ID      CampaignID
	BaseJob JobID
	// BaseBEL is the unshocked best-estimate liability.
	BaseBEL float64
	// BaseVaRSCR is the base job's own 99.5% VaR capital figure, reported
	// alongside the standard-formula aggregation for comparison.
	BaseVaRSCR float64
	// Modules holds the per-module outcomes in submission order.
	Modules []ModuleResult
	// SCR is the standard-formula aggregation of the module charges.
	SCR stress.SCR
	// Cost totals the money side across the base and module deploys,
	// stamped with the campaign budget when one was set.
	Cost CostReport
}

// CampaignSnapshot is a point-in-time view of a campaign.
type CampaignSnapshot struct {
	ID CampaignID
	// Status aggregates the job lifecycles: queued until any job starts,
	// then running; terminal once every job is terminal (failed wins over
	// canceled wins over done).
	Status JobStatus
	// Jobs holds the base job's snapshot first, then one per module.
	Jobs []JobSnapshot
	// Done/Total sum outer-path progress across all jobs.
	Done, Total int
	SubmittedAt time.Time
}

// campaign is the service-internal campaign record. It holds the job
// pointers directly, so job-map eviction never invalidates a live campaign.
type campaign struct {
	id          CampaignID
	base        *job
	modules     []stress.Module
	jobs        []*job // aligned with modules
	submittedAt time.Time
	// budget is the campaign-wide accountant every job's deploy reserves
	// from; nil when the campaign is unbounded.
	budget *costAccountant
}

// all returns base plus module jobs.
func (c *campaign) all() []*job {
	out := make([]*job, 0, len(c.jobs)+1)
	out = append(out, c.base)
	return append(out, c.jobs...)
}

// terminal reports whether every job of the campaign has settled.
func (c *campaign) terminal() bool {
	for _, j := range c.all() {
		if !j.terminal() {
			return false
		}
	}
	return true
}

// SubmitCampaign validates and enqueues a stress campaign: the base job plus
// one shocked job per module, all over the service's ordinary worker pool
// and deploy path (each revaluation is transparently deployed and feeds the
// knowledge base like any single job). Unless NoScenarioReuse is set, the
// base correlated paths are generated once into a shared scenario set and
// every module derives its paths from it by shift/rescale. A module whose
// market is the base's bit for bit — its shock moves only the decrements or
// drivers nothing reads, like the mortality shock, or the currency shock on
// a fund with no foreign sleeve — is still deployed, billed and recorded as
// its own job, but rides the base's walk as an extra book instead of
// walking the same scenarios again.
//
// Submission is all-or-nothing: if any job is rejected (queue full, closed
// service), the already-submitted jobs are cancelled and the error returned.
// The context governs every job of the campaign.
func (s *Service) SubmitCampaign(ctx context.Context, cs CampaignSpec) (CampaignID, error) {
	if err := cs.Base.Validate(); err != nil {
		return "", err
	}
	if cs.Base.Scenarios != nil {
		return "", errors.New("core: campaign base spec must not carry a scenario source")
	}
	shocks := cs.Shocks
	if len(shocks) == 0 {
		shocks = stress.StandardFormula()
	}
	if err := stress.ValidateShocks(shocks); err != nil {
		return "", err
	}
	gen, err := stochastic.NewGenerator(cs.Base.Market)
	if err != nil {
		return "", err
	}
	// The campaign-wide budget accountant: every module's deploy reserves
	// from one shared balance. An unmeetable budget is rejected up front —
	// the cheapest feasible single deploy times the job count must fit.
	acct := newCostAccountant(cs.Base.Constraints.MaxCost)
	if acct != nil {
		whole := aggregateBlock(cs.Base, "/sim")
		if err := whole.Validate(); err != nil {
			return "", err
		}
		if cheapest, ok := s.d.CheapestFeasibleUSD(ctx, whole.Params(), cs.Base.Constraints); ok {
			jobs := 1 + len(shocks)
			if need := cheapest * float64(jobs); need > cs.Base.Constraints.MaxCost {
				return "", &BudgetError{CheapestUSD: need, MaxCostUSD: cs.Base.Constraints.MaxCost, Jobs: jobs}
			}
		}
	}
	baseSpec, moduleSpecs := campaignSpecs(cs, shocks, gen, acct)
	// Job pointers are taken at submission time: a lookup through the job
	// map after the loop could race eviction on a small-retention service.
	submitted := make([]*job, 0, len(shocks)+1)
	rollback := func() {
		for _, j := range submitted {
			j.cancel()
		}
	}
	baseJob, err := s.submitJob(ctx, baseSpec)
	if err != nil {
		return "", fmt.Errorf("core: campaign base job: %w", err)
	}
	submitted = append(submitted, baseJob)
	moduleJobs := make([]*job, len(shocks))
	modules := make([]stress.Module, len(shocks))
	for k, sh := range shocks {
		j, err := s.submitJob(ctx, moduleSpecs[k])
		if err != nil {
			rollback()
			return "", fmt.Errorf("core: campaign module %s: %w", sh.Module, err)
		}
		submitted = append(submitted, j)
		moduleJobs[k] = j
		modules[k] = sh.Module
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Close raced the submission; the jobs are already being cancelled.
		return "", ErrServiceClosed
	}
	s.nextCampaign++
	cid := CampaignID(fmt.Sprintf("camp-%04d", s.nextCampaign))
	c := &campaign{id: cid, base: baseJob, modules: modules, jobs: moduleJobs, submittedAt: time.Now(), budget: acct}
	s.campaigns[cid] = c
	s.campaignOrder = append(s.campaignOrder, cid)
	return cid, nil
}

// campaignSpecs builds the base job's spec and one spec per shock, all
// drawing on one scenario backbone and the campaign's budget accountant, and
// hands the base and every module that shares its market (sharesMarket) one
// sharedWalk, which records each rider's decrement basis.
func campaignSpecs(cs CampaignSpec, shocks []stress.Shock, gen *stochastic.Generator, acct *costAccountant) (SimulationSpec, []SimulationSpec) {
	// The campaign's scenario backbone: a memoizing shared set, or a plain
	// per-access generator when reuse is off. Either way every module's
	// paths derive from the SAME base streams (common random numbers), so
	// the per-module deltas carry no Monte Carlo noise between modules and
	// are identical with and without reuse.
	var base stochastic.Source
	if cs.NoScenarioReuse {
		base = stochastic.NewPathSource(gen, cs.Base.Seed)
	} else {
		base = stochastic.NewSet(gen, cs.Base.Seed)
	}
	// The serializable recipe behind the shared source: every job of the
	// campaign carries a ref differing only in Transform, so a cluster node
	// rebuilds ONE base set (the refs share a base key) and all modules
	// derive from it — scenario reuse survives the trip across the wire.
	baseRef := stochastic.Ref{Market: cs.Base.Market, Seed: cs.Base.Seed, Memoize: !cs.NoScenarioReuse}

	baseSpec := cs.Base
	baseSpec.Scenarios = base
	baseSpec.ScenarioRef = &baseRef
	baseSpec.budget = acct
	modules := make([]SimulationSpec, len(shocks))
	for k, sh := range shocks {
		spec := cs.Base
		spec.Market = sh.Market.Config(cs.Base.Market)
		spec.Biometric = cs.Base.Biometric.Compose(sh.Biometric)
		spec.Scenarios = stochastic.Derived(base, sh.Market)
		ref := baseRef
		ref.Transform = sh.Market
		spec.ScenarioRef = &ref
		spec.budget = acct
		if sharesMarket(cs.Base, sh) {
			if baseSpec.shared == nil {
				baseSpec.shared = &sharedWalk{src: base, ref: &baseRef, bases: []eeb.Biometric{cs.Base.Biometric}}
			}
			if w := baseSpec.shared; w.basis(spec.Biometric) < 0 {
				w.bases = append(w.bases, spec.Biometric)
			}
			spec.shared = baseSpec.shared
		}
		modules[k] = spec
	}
	return baseSpec, modules
}

// sharesMarket reports, from the inputs alone, whether the shocked
// valuation walks the base's market bit for bit: the shock leaves the market
// model the fund's bonds are priced on alone and moves only drivers nothing
// reads. The liabilities read the fund's credited returns and the discount
// curve, so the rate always counts; the fund says what its sleeves read; a
// proxied valuation also regresses on the drivers of its features. A shock
// to the decrements changes only the books priced along the walk — except
// under a proxy, whose model seeds hash the block ID a rider's books walk
// under an alias of.
func sharesMarket(base SimulationSpec, sh stress.Shock) bool {
	if !reflect.DeepEqual(sh.Market.Config(base.Market), base.Market) {
		return false
	}
	reads := stochastic.RateDriver | base.Fund.Drivers()
	if base.Proxy != nil {
		if !sh.Biometric.IsZero() {
			return false
		}
		reads |= alm.FeatureDrivers
	}
	return sh.Market.Drivers()&reads == 0
}

// sharedWalk is the one walk of a market that a campaign's base and the
// modules riding it (sharesMarket) all need. Each job's book is priced along
// it under that job's decrement basis; jobs on the same basis (the base and
// fx, say) share one book. The first of those jobs to reach the walk runs it
// under its own context, for every basis; a job that arrives while it runs
// waits on that run — never on a queued job, so no pool size can deadlock on
// it — and one that arrives after it succeeded takes its books. A run that
// fails leaves nothing behind: a waiter whose own context is still live then
// walks the whole set itself, so no job inherits another's cancellation,
// deadline or fault.
type sharedWalk struct {
	// src and ref are the base's scenario source and ref, which every block
	// of the walk reads; bases holds every distinct decrement basis priced
	// along it, the base's first. All three are fixed by campaignSpecs.
	src   stochastic.Source
	ref   *stochastic.Ref
	bases []eeb.Biometric

	mu      sync.Mutex
	running chan struct{} // closed when the run in flight ends; nil when none is
	settled bool          // a run succeeded: results and proxy are its
	results map[string]*alm.Result
	proxy   *ProxyReport
}

// basis returns the index of b among the walk's bases, or -1.
func (w *sharedWalk) basis(b eeb.Biometric) int {
	for k, o := range w.bases {
		if o.MortalityScale() == b.MortalityScale() && o.LapseScale() == b.LapseScale() {
			return k
		}
	}
	return -1
}

// walkID is the ID a block of basis k travels under in the walk: its own
// for the base's basis, aliased with the basis index for the others, so the
// books of one portfolio under several bases stay apart.
func walkID(id string, k int) string {
	if k == 0 {
		return id
	}
	return fmt.Sprintf("%s#%d", id, k)
}

// blockWalk values a set of blocks, reporting progress to onProgress.
type blockWalk func(blocks []*eeb.Block, onProgress func(grid.Progress)) (map[string]*alm.Result, *ProxyReport, error)

// value returns the valuation of one job's split blocks, on decrement basis
// basis: its books of the shared walk, run by walk unless another job's run
// already produced them or is producing them; shared reports that they are
// another job's run. The walker hands walk every basis's copy of its split
// over the base's source and ref, so they all pass eeb.SameWalk, and reports
// only its own blocks' progress, under their own IDs. On a nil sharedWalk it
// is walk(blocks, onProgress). The *alm.Result values are shared between the
// jobs, and read-only as always; every job gets a map of its own.
func (w *sharedWalk) value(ctx context.Context, blocks []*eeb.Block, basis eeb.Biometric, onProgress func(grid.Progress), walk blockWalk) (map[string]*alm.Result, *ProxyReport, bool, error) {
	if w == nil {
		results, proxy, err := walk(blocks, onProgress)
		return results, proxy, false, err
	}
	k := w.basis(basis)
	own := make(map[string]string) // walk ID -> block ID of this job's type-B blocks
	for _, b := range eeb.TypeB(blocks) {
		own[walkID(b.ID, k)] = b.ID
	}
	all, proxy, shared, err := w.do(ctx, func() (map[string]*alm.Result, *ProxyReport, error) {
		walked := make([]*eeb.Block, 0, len(w.bases)*len(blocks))
		for i, bio := range w.bases {
			for _, b := range blocks {
				c := *b
				c.ID, c.Biometric, c.Scenarios, c.ScenarioRef = walkID(b.ID, i), bio, w.src, w.ref
				walked = append(walked, &c)
			}
		}
		var mine func(grid.Progress)
		if onProgress != nil {
			mine = func(ev grid.Progress) {
				if id, ok := own[ev.BlockID]; ok {
					ev.BlockID = id
					onProgress(ev)
				}
			}
		}
		return walk(walked, mine)
	})
	if err != nil {
		return nil, nil, false, err
	}
	results := make(map[string]*alm.Result, len(own))
	for wid, id := range own {
		results[id] = all[wid]
	}
	return results, proxy, shared, nil
}

// do returns the walk's results, running walk for them unless another job's
// run already produced them or is producing them; shared reports that they
// are another job's run. The map is the walk's and must not be modified.
func (w *sharedWalk) do(ctx context.Context, walk func() (map[string]*alm.Result, *ProxyReport, error)) (results map[string]*alm.Result, proxy *ProxyReport, shared bool, err error) {
	w.mu.Lock()
	for w.running != nil {
		running := w.running
		w.mu.Unlock()
		select {
		case <-running:
		case <-ctx.Done():
			return nil, nil, false, ctx.Err()
		}
		w.mu.Lock()
	}
	if w.settled {
		defer w.mu.Unlock()
		return w.results, w.proxy, true, nil
	}
	done := make(chan struct{})
	w.running = done
	w.mu.Unlock()
	// Deferred, so a panicking walk releases its waiters too.
	returned := false
	defer func() {
		w.mu.Lock()
		if returned && err == nil {
			w.settled, w.results, w.proxy = true, results, proxy
		}
		w.running = nil
		w.mu.Unlock()
		close(done)
	}()
	results, proxy, err = walk()
	returned = true
	return results, proxy, false, err
}

// CampaignStatus returns a snapshot of the campaign.
func (s *Service) CampaignStatus(id CampaignID) (CampaignSnapshot, error) {
	c, err := s.campaign(id)
	if err != nil {
		return CampaignSnapshot{}, err
	}
	return c.snapshot(), nil
}

// Campaigns returns snapshots of every campaign in submission order.
func (s *Service) Campaigns() []CampaignSnapshot {
	s.mu.Lock()
	ids := make([]*campaign, 0, len(s.campaignOrder))
	for _, id := range s.campaignOrder {
		ids = append(ids, s.campaigns[id])
	}
	s.mu.Unlock()
	out := make([]CampaignSnapshot, len(ids))
	for i, c := range ids {
		out[i] = c.snapshot()
	}
	return out
}

// snapshot builds the queryable view.
func (c *campaign) snapshot() CampaignSnapshot {
	out := CampaignSnapshot{ID: c.id, SubmittedAt: c.submittedAt}
	var anyStarted, anyFailed, anyCanceled bool
	allTerminal := true
	for _, j := range c.all() {
		snap := j.snapshot()
		out.Jobs = append(out.Jobs, snap)
		out.Done += snap.Done
		out.Total += snap.Total
		if snap.Status != JobQueued {
			anyStarted = true
		}
		switch snap.Status {
		case JobFailed:
			anyFailed = true
		case JobCanceled:
			anyCanceled = true
		}
		if !snap.Status.Terminal() {
			allTerminal = false
		}
	}
	switch {
	case allTerminal && anyFailed:
		out.Status = JobFailed
	case allTerminal && anyCanceled:
		out.Status = JobCanceled
	case allTerminal:
		out.Status = JobDone
	case anyStarted:
		out.Status = JobRunning
	default:
		out.Status = JobQueued
	}
	return out
}

// CampaignResult blocks until every job of the campaign reaches a terminal
// state (or ctx is cancelled) and returns the aggregated report: per-module
// delta-BEL and the standard-formula SCR. Any failed or cancelled job fails
// the whole campaign with that job's error.
func (s *Service) CampaignResult(ctx context.Context, id CampaignID) (*CampaignReport, error) {
	c, err := s.campaign(id)
	if err != nil {
		return nil, err
	}
	// Settle first: a job's failure or cancellation is reported only once
	// its siblings — and with them the campaign's status — are terminal too.
	for _, j := range c.all() {
		select {
		case <-j.doneCh:
		case <-ctx.Done():
			return nil, fmt.Errorf("core: campaign %s: %w", id, ctx.Err())
		}
	}
	baseRep, err := awaitJob(ctx, c.base)
	if err != nil {
		return nil, fmt.Errorf("core: campaign %s base job: %w", id, err)
	}
	rep := &CampaignReport{
		ID:         id,
		BaseJob:    c.base.id,
		BaseBEL:    baseRep.BEL,
		BaseVaRSCR: baseRep.SCR,
	}
	deltas := make(map[stress.Module]float64, len(c.jobs))
	for k, j := range c.jobs {
		r, err := awaitJob(ctx, j)
		if err != nil {
			return nil, fmt.Errorf("core: campaign %s module %s: %w", id, c.modules[k], err)
		}
		delta := r.BEL - baseRep.BEL
		if delta < 0 {
			delta = 0
		}
		rep.Modules = append(rep.Modules, ModuleResult{
			Module: c.modules[k], Job: j.id, BEL: r.BEL, DeltaBEL: delta,
		})
		deltas[c.modules[k]] = delta
	}
	rep.SCR = stress.Aggregate(deltas)
	if c.budget != nil {
		rep.Cost = c.budget.snapshot()
	} else {
		rep.Cost.add(baseRep.Deploy)
		for k := range c.jobs {
			r, _ := awaitJob(ctx, c.jobs[k])
			if r != nil {
				rep.Cost.add(r.Deploy)
			}
		}
	}
	return rep, nil
}

// CancelCampaign requests cancellation of every job of the campaign.
func (s *Service) CancelCampaign(id CampaignID) error {
	c, err := s.campaign(id)
	if err != nil {
		return err
	}
	for _, j := range c.all() {
		j.cancel()
	}
	return nil
}

// awaitJob waits for a job held by pointer (immune to job-map eviction) and
// returns its report.
func awaitJob(ctx context.Context, j *job) (*SimulationReport, error) {
	select {
	case <-j.doneCh:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.report, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Service) campaign(id CampaignID) (*campaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	return c, nil
}
