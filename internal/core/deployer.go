// Package core ties the system together into the paper's contribution: the
// ML-based transparent deploy system organised as a self-optimizing loop
// (Section III). Every deploy selects the cheapest configuration whose
// predicted time meets the Solvency II deadline (Algorithm 1), runs the
// workload on the simulated cloud, records the measured execution time in
// the knowledge base and retrains the prediction models — so useful
// computations double as training data and the system improves while it
// works.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"disarcloud/internal/cloud"
	"disarcloud/internal/eeb"
	"disarcloud/internal/finmath"
	"disarcloud/internal/kb"
	"disarcloud/internal/provision"
	"disarcloud/internal/stochastic"
)

// ErrDegenerateMeasurement is returned when the (simulated) cloud reports a
// non-positive or non-finite execution time — a measurement that would
// otherwise poison the knowledge base with Inf/NaN.
var ErrDegenerateMeasurement = errors.New("core: degenerate measured execution time")

// MaxManualNodes bounds the node count accepted by DeployManual and
// Bootstrap, mirroring the Constraints.MaxNodes bound of Algorithm 1's
// search space. Without it the knowledge base could record configurations no
// selector request could ever choose, skewing the training sets.
const MaxManualNodes = 64

// Deployer is the DISAR-interface-side component (DiInt in Figure 1) that
// owns the knowledge base, the predictor and the cloud provider, and runs
// the select -> execute -> record -> retrain loop.
//
// A Deployer is safe for concurrent use. An internal mutex serialises the
// part of a deploy that draws shared randomness and writes: pick among the
// candidates, simulated execution, knowledge-base record — tens of
// microseconds. The candidates' predictions are computed before it, the
// retrain runs after it, and concurrent deploys share one retrain: the learn
// step is a group commit (see learnAfter). Every deploy returns only once a
// generation holding its own sample, or a newer one, is installed, so a
// single caller sees the paper's select -> execute -> record -> retrain
// sequence exactly, while n concurrent deploys select against models at
// most n-1 samples behind the knowledge base — as in the real system, where
// a job's measured time arrives long after the next job's selection. The
// real valuation work runs outside the lock too.
type Deployer struct {
	provider     *cloud.Provider
	kb           *kb.KB
	pred         *provision.EnsemblePredictor
	sel          *provision.Selector
	rng          *finmath.RNG
	catalog      []cloud.InstanceType
	retrainEvery int

	// buffers is the scenario-panel pool shared by every valuation this
	// deployer runs: concurrent jobs of one service recycle the same panels
	// instead of allocating their own.
	buffers *stochastic.BatchPool

	// runner, when non-nil, executes the distributed part of every non-proxy
	// valuation (a multi-node cluster) instead of the in-process grid.
	runner BlockRunner

	// mu serialises the deploy loop (selection randomness, cloud noise,
	// knowledge-base record, training snapshot) — not the predictions before
	// it nor the training after it.
	mu sync.Mutex

	// The learn step's group commit (learnAfter). inFlight counts the
	// sections entered and not yet left; the rest is guarded by mu: the
	// architectures changed since the last snapshot, the sections that left
	// since then, and the rendezvous of those waiting for the next leader
	// (nil while nobody waits).
	inFlight atomic.Int32
	dirty    []string
	sections int
	waiting  *convoy

	// hook, when non-nil, is called at named points of a deploy. Only tests
	// set it: to hold a deploy where a convoy forms behind it, or to panic
	// there.
	hook func(point string)
}

// convoy is where the deploys that handed their learn step over wait for
// the leader that takes it.
type convoy struct {
	done chan struct{} // closed by the leader once its training is installed
	err  error         // the training's error; read after done
}

// Option customises a Deployer.
type Option func(*deployerConfig)

type deployerConfig struct {
	kb           *kb.KB
	catalog      []cloud.InstanceType
	retrainEvery int
	runner       BlockRunner
}

// WithRetrainEvery retrains the affected architecture's models only every
// k-th recorded sample (default 1 = after every execution, the paper's
// behaviour). Large campaigns can relax the cadence; accuracy evaluations
// retrain explicitly anyway.
func WithRetrainEvery(k int) Option {
	return func(c *deployerConfig) { c.retrainEvery = k }
}

// WithKnowledgeBase starts from an existing knowledge base (e.g. loaded
// from disk), enabling warm starts.
func WithKnowledgeBase(k *kb.KB) Option {
	return func(c *deployerConfig) { c.kb = k }
}

// WithCatalog restricts the instance types considered.
func WithCatalog(cat []cloud.InstanceType) Option {
	return func(c *deployerConfig) { c.catalog = cat }
}

// NewDeployer wires a deployer rooted at seed. The same seed reproduces the
// entire campaign: exploration, noise and all.
func NewDeployer(seed uint64, opts ...Option) (*Deployer, error) {
	cfg := deployerConfig{kb: kb.New(), catalog: cloud.Catalog()}
	for _, opt := range opts {
		opt(&cfg)
	}
	provider, err := cloud.NewProvider(cloud.DefaultPerfModel())
	if err != nil {
		return nil, err
	}
	rng := finmath.NewRNG(seed)
	pred := provision.NewEnsemblePredictor(seed ^ 0xabcdef)
	sel, err := provision.NewSelector(pred, cfg.catalog, rng.Split())
	if err != nil {
		return nil, err
	}
	if cfg.retrainEvery < 1 {
		cfg.retrainEvery = 1
	}
	d := &Deployer{
		provider:     provider,
		kb:           cfg.kb,
		pred:         pred,
		sel:          sel,
		rng:          rng,
		catalog:      cfg.catalog,
		retrainEvery: cfg.retrainEvery,
		buffers:      stochastic.NewBatchPool(),
		runner:       cfg.runner,
	}
	if d.kb.Len() > 0 {
		if err := d.pred.Retrain(d.kb); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// KB exposes the knowledge base (read-mostly: inspect, persist).
func (d *Deployer) KB() *kb.KB { return d.kb }

// Predictor exposes the ensemble predictor (for evaluation harnesses).
func (d *Deployer) Predictor() *provision.EnsemblePredictor { return d.pred }

// Selector exposes the Algorithm 1 selector.
func (d *Deployer) Selector() *provision.Selector { return d.sel }

// Provider exposes the simulated cloud provider.
func (d *Deployer) Provider() *cloud.Provider { return d.provider }

// Report describes one completed deploy.
type Report struct {
	Choice           provision.Choice
	PredictedSeconds float64 // 0 when bootstrapped without a model
	ActualSeconds    float64
	ProRataUSD       float64 // cost attributed to the simulation (Table II), at the tier's expected rate
	BilledUSD        float64 // hour-rounded bill including boot time, at the tier in effect
	OnDemandUSD      float64 // all-on-demand counterfactual bill for the same cluster hours
	Revocations      int     // spot revocations survived during the deploy
	Bootstrap        bool    // true when the config was chosen without ML
	Fallback         bool    // true when no config met Tmax and the fastest was used
	KBSize           int     // knowledge-base size after recording

	// sample is the knowledge-base record this deploy added (nil when a
	// revocation stretched the run). Kept so a valuation that panics after
	// its deploy can retract the sample — see Deployer.forget.
	sample *kb.Sample
}

// Deploy runs the full loop for one workload: Algorithm 1 selection (with
// bootstrap and no-feasible fallbacks), simulated execution, knowledge-base
// recording and model retraining. The context is honoured throughout
// selection and execution; a cancelled ctx returns ctx.Err() without
// recording anything.
func (d *Deployer) Deploy(ctx context.Context, f eeb.CharacteristicParams, c provision.Constraints) (*Report, error) {
	return d.deploy(ctx, f, c, d.rng, nil)
}

// DeploySeeded is Deploy with the cloud-side noise (boot latency, execution
// jitter) drawn from a private stream rooted at seed instead of the
// deployer's shared one. Concurrent jobs use it so each job's measured time
// is a deterministic function of its own seed, independent of how the jobs
// interleave.
func (d *Deployer) DeploySeeded(ctx context.Context, f eeb.CharacteristicParams, c provision.Constraints, seed uint64) (*Report, error) {
	return d.deployBudgeted(ctx, f, c, seed, nil)
}

// deployBudgeted is DeploySeeded drawing against a shared budget
// accountant (nil = none). Campaign jobs route through here so concurrent
// modules reserve from, and settle into, one campaign-wide balance.
func (d *Deployer) deployBudgeted(ctx context.Context, f eeb.CharacteristicParams, c provision.Constraints, seed uint64, acct *costAccountant) (*Report, error) {
	return d.deploy(ctx, f, c, finmath.NewRNG(seed^0x9d15a7c10bd5eed5), acct)
}

// learnAfter runs prepare (nil = nothing) outside the deploy mutex, then
// critical under it, then the learn step for the architectures critical
// reports changed — as a group commit. A section is in flight from entry
// until it leaves the mutex. One that leaves while another is in flight
// hands its architectures over and waits; the one that leaves with nobody
// behind it, or as the GOMAXPROCS-th since the last snapshot, leads: it
// takes ONE generation-stamped snapshot of every architecture handed over,
// trains it outside the mutex and releases the waiting with the training's
// error. The cap bounds any wait by GOMAXPROCS critical sections plus one
// training whatever the arrival stream, and is the number of trainings that
// would have run side by side anyway. A sequential caller always leads,
// alone, with its own architecture.
//
// The hand-off is deferred, so a panic in prepare or critical takes it too:
// the panicking section un-counts itself and leads for what others handed
// over, if it must, before the panic travels on.
func (d *Deployer) learnAfter(prepare func(), critical func() ([]string, error)) (err error) {
	d.inFlight.Add(1)
	var touched []string
	locked := false
	defer func() {
		if !locked {
			d.mu.Lock()
		}
		snaps, conv, leads := d.handOff(touched)
		d.mu.Unlock()
		switch {
		case leads:
			d.at("train")
			trainErr := d.pred.Train(snaps)
			if conv != nil {
				conv.err = trainErr
				close(conv.done)
			}
			if err == nil {
				err = trainErr
			}
		case conv != nil: // a follower: its own section succeeded
			<-conv.done
			err = conv.err
		}
	}()
	if prepare != nil {
		prepare()
	}
	d.mu.Lock()
	locked = true
	touched, err = critical()
	return err
}

// handOff is how a section leaves: it adds touched to the dirty set,
// un-counts the section and decides its part in the learn step. A leader
// gets the snapshots to train and the convoy to release after (nil when
// nobody waits); a follower the convoy to wait on; a section that changed
// nothing and need not lead gets neither. d.mu must be held.
func (d *Deployer) handOff(touched []string) (snaps []provision.Snapshot, conv *convoy, leads bool) {
	for _, arch := range touched {
		if !slices.Contains(d.dirty, arch) {
			d.dirty = append(d.dirty, arch)
		}
	}
	d.sections++
	if d.inFlight.Add(-1) > 0 && d.sections < runtime.GOMAXPROCS(0) {
		if len(touched) == 0 {
			return nil, nil, false
		}
		if d.waiting == nil {
			d.waiting = &convoy{done: make(chan struct{})}
		}
		return nil, d.waiting, false
	}
	snaps = d.pred.Snapshot(d.kb, d.dirty...)
	conv = d.waiting
	d.dirty, d.sections, d.waiting = d.dirty[:0], 0, nil
	return snaps, conv, true
}

// at calls the test hook, if any.
func (d *Deployer) at(point string) {
	if d.hook != nil {
		d.hook(point)
	}
}

// selection is the part of Algorithm 1 that reads only the installed
// models, computed before the deploy mutex: the deadline-feasible
// candidates; or — fallback — the fastest configuration alone when there
// are none; or — bootstrap — nothing, while no architecture has a model;
// or the error that stopped the enumeration.
type selection struct {
	cands     []provision.Choice
	fallback  bool
	bootstrap bool
	err       error
}

// enumerate computes a deploy's selection.
func (d *Deployer) enumerate(ctx context.Context, f eeb.CharacteristicParams, c provision.Constraints) selection {
	d.at("candidates")
	if err := f.Validate(); err != nil {
		return selection{err: err}
	}
	sel := selection{}
	sel.cands, sel.err = d.sel.Candidates(ctx, f, c)
	if sel.err == nil && len(sel.cands) == 0 {
		var fastest provision.Choice
		fastest, sel.err = d.sel.SelectFastest(ctx, f, c.MaxNodes)
		sel.cands, sel.fallback = []provision.Choice{fastest}, true
	}
	if errors.Is(sel.err, provision.ErrUntrained) {
		return selection{bootstrap: true}
	}
	return sel
}

// deploy is the body of Deploy. The execution rng is passed explicitly so
// per-job seed splits can bypass the shared stream (d.rng is only ever used
// under d.mu).
func (d *Deployer) deploy(ctx context.Context, f eeb.CharacteristicParams, c provision.Constraints, rng *finmath.RNG, acct *costAccountant) (*Report, error) {
	var (
		sel selection
		rep *Report
	)
	err := d.learnAfter(func() {
		sel = d.enumerate(ctx, f, c)
	}, func() (_ []string, err error) {
		d.at("section")
		if rep, err = d.deployLocked(ctx, f, c, sel, rng, acct); err != nil {
			return nil, err
		}
		return d.touched(rep), nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// touched names the architecture a recorded deploy calls a retrain for: the
// sample's, at the retrain cadence. d.mu must be held.
func (d *Deployer) touched(rep *Report) []string {
	if rep.sample == nil || d.kb.Len()%d.retrainEvery != 0 {
		return nil
	}
	return []string{rep.sample.Architecture}
}

// deployLocked is deploy's critical section — pick, execute, record; d.mu
// must be held. The remaining budget is read here, under the lock, and
// applied by Pick: it is what concurrent deploys contend for.
func (d *Deployer) deployLocked(ctx context.Context, f eeb.CharacteristicParams, c provision.Constraints, sel selection, rng *finmath.RNG, acct *costAccountant) (*Report, error) {
	if sel.err != nil {
		return nil, sel.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if acct != nil {
		// The cap this deploy sees is the campaign's remaining balance, not
		// the original figure: earlier modules have already drawn on it.
		rem := acct.remaining()
		if rem <= 0 {
			return nil, &BudgetError{MaxCostUSD: acct.limit, Jobs: 1}
		}
		c.MaxCost = rem
	}
	choice, err := d.choose(c, sel)
	if err != nil {
		var obe *provision.OverBudgetError
		if errors.As(err, &obe) {
			return nil, &BudgetError{CheapestUSD: obe.CheapestUSD, MaxCostUSD: obe.MaxCostUSD, Jobs: 1}
		}
		return nil, err
	}
	// Bootstrap and fallback choices bypass Select's budget filter; price
	// them here so a money cap binds every path into the cloud.
	reserveUSD := choice.PredictedBilledUSD
	if reserveUSD == 0 {
		reserveUSD = provision.BilledEstimate(d.provider.PriceSchedule(), choice)
	}
	if c.MaxCost > 0 && reserveUSD > c.MaxCost {
		return nil, &BudgetError{CheapestUSD: reserveUSD, MaxCostUSD: c.MaxCost, Jobs: 1}
	}
	if acct != nil && !acct.reserve(reserveUSD) {
		return nil, &BudgetError{CheapestUSD: reserveUSD, MaxCostUSD: acct.limit, Jobs: 1}
	}
	rep, err := d.execute(choice, f, rng)
	if acct != nil {
		acct.settle(reserveUSD, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Bootstrap = sel.bootstrap
	rep.Fallback = sel.fallback
	return rep, nil
}

// DeployManual supersedes the ML selection with an explicit configuration —
// the paper's early manual training mode, used to artificially grow the
// knowledge base at the beginning of the system's lifetime. The node count
// is validated against the same kind of bound Algorithm 1 operates under
// (1..MaxManualNodes), so manual runs cannot record configurations the
// selector could never choose.
func (d *Deployer) DeployManual(ctx context.Context, architecture string, nodes int, f eeb.CharacteristicParams) (*Report, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	it, ok := cloud.TypeByName(architecture)
	if !ok {
		return nil, fmt.Errorf("core: unknown architecture %q", architecture)
	}
	if nodes <= 0 {
		return nil, errors.New("core: node count must be positive")
	}
	if nodes > MaxManualNodes {
		return nil, fmt.Errorf("core: node count %d exceeds the manual bound %d", nodes, MaxManualNodes)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	choice := provision.Choice{Slots: []provision.Slot{{Type: it, Nodes: nodes}}}
	var rep *Report
	err := d.learnAfter(nil, func() (_ []string, err error) {
		if rep, err = d.execute(choice, f, d.rng); err != nil {
			return nil, err
		}
		return d.touched(rep), nil
	})
	if err != nil {
		return nil, err
	}
	rep.Bootstrap = true
	return rep, nil
}

// choose finishes Algorithm 1 on a selection, with the two boundary
// policies: random configuration while the knowledge base is too small
// (manual-training phase surrogate) and fastest-available when nothing
// meets the deadline. d.mu must be held: it is what orders the draws.
func (d *Deployer) choose(c provision.Constraints, sel selection) (provision.Choice, error) {
	switch {
	case sel.bootstrap:
		it := d.catalog[d.rng.Intn(len(d.catalog))]
		n := 1 + d.rng.Intn(c.MaxNodes)
		return provision.Choice{Slots: []provision.Slot{{Type: it, Nodes: n}}}, nil
	case sel.fallback:
		return sel.cands[0], nil
	default:
		return d.sel.Pick(sel.cands, c)
	}
}

// CheapestFeasibleUSD returns the lowest conservative billed reservation
// among deadline-feasible candidates for the workload, and whether the
// figure is known. Untrained predictors return (0, false): like admission
// control, budget control admits bootstrap-phase work on faith rather
// than rejecting what it cannot price.
func (d *Deployer) CheapestFeasibleUSD(ctx context.Context, f eeb.CharacteristicParams, c provision.Constraints) (float64, bool) {
	probe := c
	probe.Epsilon = 0
	probe.MaxCost = 0
	cands, err := d.sel.Candidates(ctx, f, probe)
	if err != nil || len(cands) == 0 {
		return 0, false
	}
	cheapest := math.Inf(1)
	for _, ch := range cands {
		if ch.PredictedBilledUSD < cheapest {
			cheapest = ch.PredictedBilledUSD
		}
	}
	return cheapest, true
}

// execute launches the chosen deploy, runs the workload, terminates the
// cluster and records the sample. Cloud noise is drawn from rng; d.mu must
// be held. The deployer's selector never sets Heterogeneous, so a choice is
// one homogeneous slot.
func (d *Deployer) execute(choice provision.Choice, f eeb.CharacteristicParams, rng *finmath.RNG) (*Report, error) {
	if len(choice.Slots) != 1 {
		return nil, fmt.Errorf("core: unsupported deploy with %d slots", len(choice.Slots))
	}
	slot := choice.Slots[0]
	cluster, err := d.provider.Launch(rng, slot.Type, slot.Nodes, choice.Tier)
	if err != nil {
		return nil, err
	}
	secs, err := cluster.RunBlock(rng, f)
	if err != nil {
		return nil, err
	}
	if err := checkMeasurement(slot, secs); err != nil {
		return nil, err
	}
	rep := &Report{Choice: choice, PredictedSeconds: choice.PredictedSeconds, ActualSeconds: secs}
	rep.ProRataUSD = d.provider.PriceSchedule().ProRataCost(slot.Type, choice.Tier, slot.Nodes, secs)
	rep.OnDemandUSD = cloud.BilledCost(slot.Type, slot.Nodes, cluster.ElapsedSeconds())
	rep.Revocations = cluster.Revocations()
	rep.BilledUSD = cluster.Terminate()
	// A revocation-stretched duration is not an architecture measurement —
	// recording it would teach the predictor that this (type, nodes) is
	// slower than it is. Skip the sample; the valuation results are
	// unaffected.
	if rep.Revocations == 0 {
		sample := kb.Sample{Architecture: slot.Type.Name, Nodes: slot.Nodes, Params: f, Seconds: secs}
		if err := d.kb.Add(sample); err != nil {
			return nil, err
		}
		rep.sample = &sample
	}
	rep.KBSize = d.kb.Len()
	return rep, nil
}

// forget retracts the knowledge-base sample a deploy recorded — the cleanup
// path for a valuation that panicked after its deploy. Without it the
// predictor would keep training on the timing of a run that produced
// garbage. The affected architecture's models are rebuilt from the remaining
// samples by the learn step this section joins, or dropped here when the
// remainder falls below the training threshold. Either way a generation is
// taken under the deploy mutex after the removal, so a suite still training
// on a snapshot that held the sample is discarded when it finishes.
func (d *Deployer) forget(rep *Report) error {
	if rep == nil || rep.sample == nil {
		return nil
	}
	return d.learnAfter(nil, func() ([]string, error) {
		if !d.kb.Remove(*rep.sample) {
			return nil, nil
		}
		arch := rep.sample.Architecture
		if d.kb.Count(arch) < provision.MinSamplesToTrain {
			d.pred.Drop(arch)
			return nil, nil
		}
		return []string{arch}, nil
	})
}

// Relearn retrains every architecture of the knowledge base: the learn step
// for samples that reached it other than through a deploy, such as a gossip
// merge. It joins the convoy of the deploys in flight, or leads alone.
func (d *Deployer) Relearn() error {
	return d.learnAfter(nil, func() ([]string, error) { return d.kb.Architectures(), nil })
}

// checkMeasurement rejects non-positive or non-finite slot durations before
// they reach the knowledge base.
func checkMeasurement(slot provision.Slot, secs float64) error {
	if secs <= 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
		return fmt.Errorf("%w: %gs on %dx%s", ErrDegenerateMeasurement, secs, slot.Nodes, slot.Type.Name)
	}
	return nil
}

// Bootstrap seeds the knowledge base by cycling through the catalog with
// random node counts over the given workloads — the "early manual training
// phase, which could be used to artificially grow the knowledge base" of
// Section III — and retrains the models once at the end. The context is
// checked between runs.
func (d *Deployer) Bootstrap(ctx context.Context, workloads []eeb.CharacteristicParams, runsPerArch, maxNodes int) error {
	if len(workloads) == 0 {
		return errors.New("core: no bootstrap workloads")
	}
	if runsPerArch <= 0 || maxNodes <= 0 {
		return errors.New("core: bootstrap needs positive runs and node bound")
	}
	if maxNodes > MaxManualNodes {
		return fmt.Errorf("core: bootstrap node bound %d exceeds the manual bound %d", maxNodes, MaxManualNodes)
	}
	return d.learnAfter(nil, func() ([]string, error) {
		for _, it := range d.catalog {
			for r := 0; r < runsPerArch; r++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				f := workloads[d.rng.Intn(len(workloads))]
				n := 1 + d.rng.Intn(maxNodes)
				choice := provision.Choice{Slots: []provision.Slot{{Type: it, Nodes: n}}}
				if _, err := d.execute(choice, f, d.rng); err != nil {
					return nil, fmt.Errorf("core: bootstrap %s: %w", it.Name, err)
				}
			}
		}
		return d.kb.Architectures(), nil
	})
}
