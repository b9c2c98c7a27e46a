package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"disarcloud/internal/eeb"
	"disarcloud/internal/elastic"
	"disarcloud/internal/forecast"
	"disarcloud/internal/grid"
	"disarcloud/internal/proxyval"
	"disarcloud/internal/rl"
)

// ErrServiceClosed is returned by Submit after Close.
var ErrServiceClosed = errors.New("core: service closed")

// ErrUnknownJob is returned when a JobID does not name a job of this
// service (including jobs already evicted past the retention cap).
var ErrUnknownJob = errors.New("core: unknown job")

// ErrQueueFull is returned by Submit when the accepted-but-unstarted queue
// is at capacity — the service's backpressure signal. Callers that want to
// wait should retry; a front-end should surface it as "try again later".
var ErrQueueFull = errors.New("core: submit queue full")

// DefaultWorkers is the worker-pool size when WithWorkers is not given.
const DefaultWorkers = 4

// DefaultQueueDepth is the submit-queue capacity when WithQueueDepth is not
// given; Submit fails fast with ErrQueueFull when it is exceeded.
const DefaultQueueDepth = 64

// DefaultRetention is how many terminal jobs the service keeps queryable
// when WithRetention is not given. Older terminal jobs are evicted so a
// long-lived service does not grow without bound.
const DefaultRetention = 4096

// DefaultElasticTick is the control-loop sampling interval when WithElastic
// is given without WithElasticTick.
const DefaultElasticTick = 20 * time.Millisecond

// ServiceOption customises a Service.
type ServiceOption func(*serviceConfig)

type serviceConfig struct {
	workers    int
	queueDepth int
	retention  int
	elastic    *elastic.Config
	tick       time.Duration
	ticker     TickerFunc
	estimator  RuntimeEstimator
	forecast   *forecast.Config
	procScale  func(target int)
	policy     elastic.Policy
	qtable     *rl.Table
}

// WithWorkers sets the number of valuations the service runs concurrently —
// the initial pool size when the service is elastic, the fixed size
// otherwise.
func WithWorkers(n int) ServiceOption {
	return func(c *serviceConfig) { c.workers = n }
}

// WithElastic enables the elastic control plane: a scaling policy with the
// given configuration observes queue depth, in-flight jobs and the estimated
// backlog every tick and grows or shrinks the worker pool within
// [MinWorkers, MaxWorkers], with the configured cooldowns and hysteresis.
func WithElastic(cfg elastic.Config) ServiceOption {
	return func(c *serviceConfig) { c.elastic = &cfg }
}

// WithElasticTick overrides the control-loop sampling interval (default
// DefaultElasticTick).
func WithElasticTick(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.tick = d }
}

// WithControlTicker replaces the control loop's time source. Production
// never needs it; tests inject a manual tick channel so control-loop
// sampling and decision application are deterministic without sleeps — the
// time values sent on the channel become the Signals.Now the controller
// measures cooldowns against.
func WithControlTicker(fn TickerFunc) ServiceOption {
	return func(c *serviceConfig) { c.ticker = fn }
}

// WithForecast enables proactive provisioning on top of the elastic control
// plane (it requires WithElastic): the control loop records per-interval
// telemetry into a ring, a rolling-backtest selector keeps the
// lowest-sMAPE forecast model (EWMA / Holt / Holt-Winters / AR) fitted on
// the arrival series, and a planner converts the forecast arrival rate
// times the KB-predicted mean job runtime into a feed-forward worker
// target, which every observation then carries as Obs.Plan. Each tick the
// hybrid policy (elastic.Hybrid) applies max(reactive decision, planner
// target), clamped to the elastic bounds — bursts the models anticipate are
// paid for before the queue builds, while everything the forecast misses
// still falls through to the reactive path.
func WithForecast(cfg forecast.Config) ServiceOption {
	return func(c *serviceConfig) { c.forecast = &cfg }
}

// WithScalingPolicy replaces the control loop's decision layer with a
// custom elastic.Policy (it requires WithElastic, which supplies the loop
// itself and the pool bounds status reports). The loop steps it once per
// control tick. The built-in policies — reactive, hybrid under
// WithForecast, learned under WithLearnedPolicy — cover production; this
// seam exists for policies developed and verified out of tree.
func WithScalingPolicy(p elastic.Policy) ServiceOption {
	return func(c *serviceConfig) { c.policy = p }
}

// WithLearnedPolicy installs a trained Q-table (internal/rl) as the control
// loop's decision layer — the third built-in policy next to reactive and
// hybrid, stepped once per control tick. It requires WithElastic (the loop
// and the pool gauges), and the table's own pool bounds must lie within the
// elastic configuration's, so the policy can never target capacity the
// configuration forbids. It conflicts with WithForecast and
// WithScalingPolicy — one decision layer at a time.
func WithLearnedPolicy(t *rl.Table) ServiceOption {
	return func(c *serviceConfig) { c.qtable = t }
}

// scalingPolicy resolves the decision layer the options select over the
// defaulted elastic configuration, and the wall-clock length of its tick
// for the controller: the threshold policies run at nanosecond ticks, so
// their cooldowns are real elapsed time; a Q-table or custom policy counts
// control ticks.
func (c *serviceConfig) scalingPolicy(ec elastic.Config) (elastic.Policy, time.Duration, error) {
	switch {
	case c.qtable != nil:
		if c.forecast != nil {
			return nil, 0, errors.New("core: WithLearnedPolicy conflicts with WithForecast (one decision layer at a time)")
		}
		if c.policy != nil {
			return nil, 0, errors.New("core: WithLearnedPolicy conflicts with WithScalingPolicy (one decision layer at a time)")
		}
		if err := c.qtable.Validate(); err != nil {
			return nil, 0, err
		}
		if spec := c.qtable.Spec; spec.MinWorkers < ec.MinWorkers || spec.MaxWorkers > ec.MaxWorkers {
			return nil, 0, fmt.Errorf("core: Q-table pool bounds [%d,%d] outside the elastic bounds [%d,%d]",
				spec.MinWorkers, spec.MaxWorkers, ec.MinWorkers, ec.MaxWorkers)
		}
		return c.qtable, 0, nil
	case c.policy != nil:
		return c.policy, 0, nil
	case c.forecast != nil:
		p, err := elastic.NewHybrid(ec, time.Nanosecond)
		return p, time.Nanosecond, err
	default:
		p, err := elastic.NewReactive(ec, time.Nanosecond)
		return p, time.Nanosecond, err
	}
}

// WithAdmissionControl enables deadline-aware admission: every submission is
// runtime-estimated, and a job whose predicted completion time — current
// backlog plus its own estimate — already busts its TmaxSeconds is rejected
// with an *AdmissionError instead of being queued to fail. Jobs the
// estimator cannot price are always admitted. PredictorEstimator(d) reuses
// the knowledge-base ensemble for the estimates.
func WithAdmissionControl(est RuntimeEstimator) ServiceOption {
	return func(c *serviceConfig) { c.estimator = est }
}

// WithProcessScaler registers a hook invoked with the new worker-pool target
// every time it changes — at service start, on Resize, and on every applied
// elastic decision. A clustered deployment uses it to scale worker PROCESSES
// alongside the in-service pool: the hook launches or retires disard worker
// nodes so cluster capacity tracks the elastic controller. The hook runs on
// the control loop; implementations must return promptly and kick slow
// process management off asynchronously.
func WithProcessScaler(fn func(target int)) ServiceOption {
	return func(c *serviceConfig) { c.procScale = fn }
}

// WithQueueDepth sets how many accepted-but-unstarted jobs the service
// holds before Submit fails with ErrQueueFull.
func WithQueueDepth(n int) ServiceOption {
	return func(c *serviceConfig) { c.queueDepth = n }
}

// WithRetention sets how many terminal jobs stay queryable before the
// oldest are evicted (their Status/Result then return ErrUnknownJob).
func WithRetention(n int) ServiceOption {
	return func(c *serviceConfig) { c.retention = n }
}

// Service is the valuation front door: a long-lived component that accepts
// a stream of concurrent SimulationSpec submissions, runs them on a bounded
// worker pool over one shared self-optimizing Deployer, and exposes job
// status, results and a progress event stream.
//
// Every job's measured execution time feeds the shared knowledge base and
// retrains the prediction models, so the service as a whole improves while
// it serves — the paper's self-optimizing loop, lifted from a single-caller
// library function to a many-tenant service.
type Service struct {
	d         *Deployer
	sched     *scheduler
	retention int
	estimator RuntimeEstimator // nil = no admission control
	scaler    *autoscaler      // nil = fixed pool
	fc        *forecastState   // nil = no planner target in the observations
	procScale func(int)        // nil = no process scaling hook

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	proxyMu     sync.Mutex
	proxyJobs   int
	proxyTotals proxyval.Stats

	costMu     sync.Mutex
	costTotals CostReport

	mu            sync.Mutex
	jobs          map[JobID]*job
	order         []JobID
	nextID        uint64
	campaigns     map[CampaignID]*campaign
	campaignOrder []CampaignID
	nextCampaign  uint64
	closed        bool
}

// NewService starts a service over the given deployer. The returned service
// owns its worker pool; call Close to drain it.
func NewService(d *Deployer, opts ...ServiceOption) (*Service, error) {
	if d == nil {
		return nil, errors.New("core: service needs a deployer")
	}
	cfg := serviceConfig{workers: DefaultWorkers, queueDepth: DefaultQueueDepth, retention: DefaultRetention}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers <= 0 {
		return nil, errors.New("core: service needs at least one worker")
	}
	if cfg.queueDepth < 1 {
		return nil, errors.New("core: service queue depth must be positive")
	}
	if cfg.retention < 1 {
		return nil, errors.New("core: service retention must be positive")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		d:          d,
		sched:      newScheduler(cfg.queueDepth, cfg.workers),
		retention:  cfg.retention,
		estimator:  cfg.estimator,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[JobID]*job),
		campaigns:  make(map[CampaignID]*campaign),
		procScale:  cfg.procScale,
	}
	if cfg.elastic != nil {
		ec := *cfg.elastic
		if ec.MinWorkers == 0 {
			// The initial pool is a natural floor unless the caller set one;
			// an initial pool above MaxWorkers then fails validation below
			// rather than silently dropping the floor.
			ec.MinWorkers = cfg.workers
		}
		if err := ec.Validate(); err != nil {
			cancel()
			return nil, err
		}
		ec = ec.WithDefaults()
		if cfg.workers < ec.MinWorkers || cfg.workers > ec.MaxWorkers {
			cancel()
			return nil, fmt.Errorf("core: initial pool %d outside the elastic bounds [%d,%d]",
				cfg.workers, ec.MinWorkers, ec.MaxWorkers)
		}
		pol, unit, err := cfg.scalingPolicy(ec)
		if err != nil {
			cancel()
			return nil, err
		}
		tick := cfg.tick
		if tick <= 0 {
			tick = DefaultElasticTick
		}
		ticker := cfg.ticker
		if ticker == nil {
			ticker = defaultTicker
		}
		s.scaler = &autoscaler{ctrl: elastic.NewController(pol, unit), cfg: ec, tick: tick, newTicker: ticker}
	}
	if s.scaler == nil {
		needs := ""
		switch {
		case cfg.forecast != nil:
			needs = "WithForecast"
		case cfg.qtable != nil:
			needs = "WithLearnedPolicy"
		case cfg.policy != nil:
			needs = "WithScalingPolicy"
		}
		if needs != "" {
			cancel()
			return nil, fmt.Errorf("core: %s requires WithElastic (the scaling policy runs on the control loop)", needs)
		}
	}
	if cfg.forecast != nil {
		// The planner prices demand with the same KB ensemble admission
		// control uses; without admission control it gets its own estimator
		// over the shared deployer (this does NOT enable admission — that
		// stays keyed on WithAdmissionControl).
		est := cfg.estimator
		if est == nil {
			est = PredictorEstimator(d)
		}
		fc, err := newForecastState(*cfg.forecast, est)
		if err != nil {
			cancel()
			return nil, err
		}
		s.fc = fc
	}
	s.spawn(s.sched.setTarget(cfg.workers))
	s.notifyScale(cfg.workers)
	if s.scaler != nil {
		s.wg.Add(1)
		go s.controlLoop()
	}
	return s, nil
}

// Deployer exposes the shared deployer (knowledge base inspection,
// persistence).
func (s *Service) Deployer() *Deployer { return s.d }

// CostStatus returns the service-lifetime cost totals across completed
// jobs: billed dollars, the all-on-demand counterfactual, spot savings and
// revocations survived.
func (s *Service) CostStatus() CostReport {
	s.costMu.Lock()
	defer s.costMu.Unlock()
	return s.costTotals
}

// Submit validates and enqueues a valuation job. The given context governs
// the job's whole lifetime: cancelling it — before or during execution —
// stops the job, and Result then returns context.Canceled. Submit never
// blocks: when the queue is at capacity it fails fast with ErrQueueFull
// (the service's backpressure signal) and records nothing.
func (s *Service) Submit(ctx context.Context, spec SimulationSpec) (JobID, error) {
	j, err := s.submitJob(ctx, spec)
	if err != nil {
		return "", err
	}
	return j.id, nil
}

// submitJob is the body of Submit, returning the job record itself so
// campaign submission can hold the pointer directly — a lookup through
// s.jobs after the fact could race eviction on a small-retention service.
func (s *Service) submitJob(ctx context.Context, spec SimulationSpec) (*job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Budget control, like admission control, rejects up front what can
	// never fit: a standalone job whose cheapest feasible deploy already
	// exceeds its MaxCost fails with *BudgetError instead of queueing to
	// fail. Campaign jobs (spec.budget set) are pre-checked campaign-wide
	// by SubmitCampaign against the shared accountant.
	if spec.budget == nil && spec.Constraints.MaxCost > 0 {
		whole := aggregateBlock(spec, "/sim")
		if err := whole.Validate(); err != nil {
			return nil, err
		}
		if cheapest, ok := s.d.CheapestFeasibleUSD(ctx, whole.Params(), spec.Constraints); ok && cheapest > spec.Constraints.MaxCost {
			return nil, &BudgetError{CheapestUSD: cheapest, MaxCostUSD: spec.Constraints.MaxCost, Jobs: 1}
		}
	}
	// Runtime-estimate outside the service lock: the predictor-backed
	// estimator walks the whole catalog. Non-finite estimates (a degenerate
	// model extrapolation) are discarded — admission control only ever acts
	// on a usable positive prediction. The forecast planner shares the
	// estimate (its own estimator when admission control is off), scaled by
	// the job's pace factor into the wall-clock worker occupancy Little's
	// law needs; a forecast-only estimate feeds ONLY the planner — it must
	// not reach j.etaSeconds below, where it would populate the scheduler's
	// backlog-ETA sums and switch on the reactive controller's
	// deadline-pressure trigger as a side effect of WithForecast.
	var eta float64
	est := s.estimator
	if est == nil && s.fc != nil && spec.PaceFactor > 0 {
		// The forecast-only estimate is consumed solely by observePredicted
		// below, which needs a positive pace factor to convert it into
		// wall-clock occupancy — don't pay the catalog walk for a result
		// that would be discarded.
		est = s.fc.est
	}
	if est != nil {
		if secs, ok := est.EstimateSeconds(spec); ok && secs > 0 &&
			!math.IsNaN(secs) && !math.IsInf(secs, 0) {
			eta = secs
		}
	}
	if s.fc != nil && eta > 0 && spec.PaceFactor > 0 {
		s.fc.observePredicted(eta * spec.PaceFactor)
	}
	if s.estimator == nil {
		eta = 0
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServiceClosed
	}
	s.nextID++
	id := JobID(fmt.Sprintf("job-%06d", s.nextID))
	// The Tmax budget runs from SUBMISSION, queue wait included: that is the
	// deadline EDF orders by and admission control prices against, so the
	// job context must expire at the same instant — a job that waited its
	// whole budget away settles as canceled instead of starting late.
	now := time.Now()
	deadline, hasDeadline := jobDeadline(now, spec.Constraints.TmaxSeconds)
	var jobCtx context.Context
	var cancel context.CancelFunc
	if hasDeadline {
		jobCtx, cancel = context.WithDeadline(ctx, deadline)
	} else {
		jobCtx, cancel = context.WithCancel(ctx)
	}
	j := newJob(id, spec, jobCtx, cancel)
	j.submittedAt = now
	j.seq = s.nextID
	j.deadline = deadline
	j.etaSeconds = eta
	// The portfolio splits into type-B blocks of spec.Outer paths each; that
	// is the progress denominator.
	j.total = eeb.NumTypeBBlocks(spec.Portfolio.NumRepresentative(), maxContractsPerBlock) * spec.Outer
	// Fan grid monitoring out to the job's subscribers, preserving any
	// caller-supplied hook.
	userHook := spec.OnProgress
	j.spec.OnProgress = func(ev grid.Progress) {
		j.publish(ev)
		if userHook != nil {
			userHook(ev)
		}
	}
	if err := s.sched.push(j, s.estimator != nil); err != nil {
		s.mu.Unlock()
		cancel()
		return nil, err
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	return j, nil
}

// Status returns a snapshot of the job.
func (s *Service) Status(id JobID) (JobSnapshot, error) {
	j, err := s.job(id)
	if err != nil {
		return JobSnapshot{}, err
	}
	return j.snapshot(), nil
}

// JobCount returns the number of queryable job records without building
// snapshots — cheap enough for liveness probes.
func (s *Service) JobCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// CampaignCount returns the number of queryable campaign records without
// building snapshots.
func (s *Service) CampaignCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.campaigns)
}

// Jobs returns snapshots of every job in submission order.
func (s *Service) Jobs() []JobSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobSnapshot, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshot())
	}
	return out
}

// Result blocks until the job reaches a terminal state (or ctx is
// cancelled) and returns its report. A job whose own context was cancelled
// yields an error matching context.Canceled (or context.DeadlineExceeded
// when the Tmax-derived deadline expired).
func (s *Service) Result(ctx context.Context, id JobID) (*SimulationReport, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	return awaitJob(ctx, j)
}

// Progress subscribes to the job's monitoring stream. Events are grid
// per-path completions; the channel closes when the job terminates. The
// returned func unsubscribes early. Slow consumers lose events rather than
// slowing the valuation down.
func (s *Service) Progress(id JobID) (<-chan grid.Progress, func(), error) {
	j, err := s.job(id)
	if err != nil {
		return nil, nil, err
	}
	ch, unsub := j.subscribe(64)
	return ch, unsub, nil
}

// Cancel requests cancellation of a job. Terminal jobs are unaffected.
func (s *Service) Cancel(id JobID) error {
	j, err := s.job(id)
	if err != nil {
		return err
	}
	j.cancel()
	return nil
}

// Close stops accepting submissions, cancels every live job, and waits for
// the workers (and, when elastic, the control loop) to drain. It is
// idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	if alreadyClosed {
		s.wg.Wait()
		return
	}
	s.baseCancel()
	queued := s.sched.drain()
	for _, j := range live {
		j.cancel()
	}
	s.wg.Wait()
	if s.scaler != nil {
		s.scaler.close()
	}
	// Jobs still queued when the workers exited never ran; mark them
	// canceled so Result and Status settle. Campaign-held jobs may not be in
	// the live set anymore, hence both lists.
	for _, j := range queued {
		j.finish(nil, context.Canceled)
	}
	for _, j := range live {
		j.finish(nil, context.Canceled)
	}
}

func (s *Service) job(id JobID) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// worker pops jobs earliest-deadline-first until the scheduler tells it to
// exit — because the service closed, or because the pool target shrank and
// this worker retires.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.pop()
		if !ok {
			return
		}
		s.run(j)
	}
}

// run executes one job end to end and settles its terminal state.
func (s *Service) run(j *job) {
	j.start()
	began := time.Now()
	rep, err := s.runGuarded(j)
	if s.fc != nil && err == nil {
		// Completed jobs feed the planner's measured-occupancy fallback —
		// the runtime signal that works before the KB ensemble trains.
		s.fc.observeMeasured(time.Since(began).Seconds())
	}
	if err == nil && rep != nil && rep.Proxy != nil {
		s.recordProxy(rep.Proxy)
	}
	if err == nil && rep != nil && rep.Deploy != nil {
		s.costMu.Lock()
		s.costTotals.add(rep.Deploy)
		s.costMu.Unlock()
	}
	j.finish(rep, err)
	j.cancel() // release the job context's resources
	s.sched.done(j)
	s.evict()
}

// runGuarded executes the valuation, converting a panic (e.g. a degenerate
// user-supplied spec that slipped past validation) into a failed job — one
// bad submission must not take the whole service down.
func (s *Service) runGuarded(j *job) (rep *SimulationReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("core: job %s panicked: %v", j.id, r)
		}
	}()
	return s.d.RunSimulation(j.ctx, j.spec)
}

// evict drops the oldest terminal jobs and campaigns beyond the retention
// cap so a long-lived service stays bounded. Live (queued/running) jobs and
// campaigns with any live job are never evicted; campaigns hold their job
// pointers directly, so an evicted job record stays reachable through its
// campaign until that is evicted too.
func (s *Service) evict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].terminal() {
			terminal++
		}
	}
	if terminal > s.retention {
		kept := s.order[:0]
		for _, id := range s.order {
			if terminal > s.retention && s.jobs[id].terminal() {
				delete(s.jobs, id)
				terminal--
				continue
			}
			kept = append(kept, id)
		}
		s.order = kept
	}
	terminalCamps := 0
	for _, id := range s.campaignOrder {
		if s.campaigns[id].terminal() {
			terminalCamps++
		}
	}
	if terminalCamps > s.retention {
		kept := s.campaignOrder[:0]
		for _, id := range s.campaignOrder {
			if terminalCamps > s.retention && s.campaigns[id].terminal() {
				delete(s.campaigns, id)
				terminalCamps--
				continue
			}
			kept = append(kept, id)
		}
		s.campaignOrder = kept
	}
}
