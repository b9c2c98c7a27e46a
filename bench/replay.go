//go:build unix

package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"disarcloud/internal/alm"
	"disarcloud/internal/core"
	"disarcloud/internal/eeb"
	"disarcloud/internal/finmath"
	"disarcloud/internal/fund"
	"disarcloud/internal/grid"
	"disarcloud/internal/kb"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
)

// The stage replay walks sampled ops through the layers' public functions
// in pipeline order, inside the bench process, and records a span around
// each call. It measures layers from outside: nothing in the program is
// instrumented. What a call's children cost inside it cannot be seen from
// here, so they are timed as equal-shaped standalone probes.

// samples collects per-op values of per-layer metrics; the report takes
// the median of each.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// split cuts the job's portfolio into blocks the way core.RunSimulation does.
func (j opJob) split() ([]*eeb.Block, error) {
	s := j.spec
	return eeb.SplitPortfolio(s.Portfolio, s.Fund, s.Market, eeb.SplitSpec{
		MaxContractsPerBlock: serverContractsPerBlock,
		Outer:                s.Outer,
		Inner:                s.Inner,
		Biometric:            s.Biometric,
		Scenarios:            s.Scenarios,
		ScenarioRef:          s.ScenarioRef,
	})
}

// params are the characteristic parameters the deploy is selected on: the
// whole simulation as one aggregate type-B block, as core.RunSimulation
// builds it.
func (j opJob) params() eeb.CharacteristicParams {
	s := j.spec
	whole := &eeb.Block{
		ID: s.Portfolio.Name + "/sim", Type: eeb.ALMValuation,
		Portfolio: s.Portfolio, Fund: s.Fund, Market: s.Market,
		Outer: s.Outer, Inner: s.Inner, Biometric: s.Biometric,
	}
	return whole.Params()
}

// assemble turns per-job block results into the op's valuation, with the
// layout of the HTTP results: blocks for a job, modules for a campaign.
// Totals are summed in sorted block order; the workloads keep every job at
// two blocks, where the daemon's map-order sum cannot differ.
func assemble(w workload, jobs []opJob, results []map[string]*alm.Result) valuation {
	total := func(res map[string]*alm.Result) (bel, scr float64) {
		ids := make([]string, 0, len(res))
		for id := range res {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			bel += res[id].BEL
			scr += res[id].SCR
		}
		return bel, scr
	}
	v := valuation{Parts: make(map[string][2]float64)}
	v.BEL, v.SCR = total(results[0])
	if !w.campaign {
		for id, r := range results[0] {
			v.Parts[id] = [2]float64{r.BEL, r.SCR}
		}
		return v
	}
	for k := 1; k < len(jobs); k++ {
		bel, _ := total(results[k])
		v.Parts[jobs[k].name] = [2]float64{bel, max(bel-v.BEL, 0)}
	}
	return v
}

// reference is correctness check (c): the op valued by grid.RunSequential,
// the plain single-threaded engine, on the rebuilt spec. It returns the
// valuation and the time the sequential engine took.
func (w workload) reference(ctx context.Context, b opBody) (valuation, time.Duration, error) {
	jobs, _, err := w.opJobs(b)
	if err != nil {
		return valuation{}, 0, err
	}
	results := make([]map[string]*alm.Result, len(jobs))
	var took time.Duration
	for k, j := range jobs {
		blocks, err := j.split()
		if err != nil {
			return valuation{}, 0, err
		}
		start := time.Now()
		if results[k], err = grid.RunSequential(ctx, blocks, j.spec.Seed); err != nil {
			return valuation{}, 0, err
		}
		took += time.Since(start)
	}
	return assemble(w, jobs, results), took, nil
}

// replayer holds what persists across the replayed ops of one workload: the
// deployer (whose knowledge base grows op by op, as the daemon's does), the
// tracer and the collected samples.
type replayer struct {
	w      workload
	nproc  int
	d      *core.Deployer
	tr     *tracer
	vals   samples
	counts map[string]float64 // exact counts that must repeat (last op's)
}

// newReplayer builds the replay deployer over a private copy of the
// workload's knowledge base (kbPath "" = cold), with the daemon's defaults.
func newReplayer(w workload, nproc int, kbPath string, tr *tracer) (*replayer, error) {
	opts := []core.Option{}
	if kbPath != "" {
		k, err := kb.LoadFile(kbPath)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithKnowledgeBase(k))
	}
	d, err := core.NewDeployer(fixtureSeed, opts...)
	if err != nil {
		return nil, err
	}
	return &replayer{w: w, nproc: nproc, d: d, tr: tr, vals: samples{}, counts: map[string]float64{}}, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// replayOp walks op i through the pipeline and returns its valuation as
// grid.Master computed it plus the sequential reference.
func (r *replayer) replayOp(ctx context.Context, b opBody, op int) (run, ref valuation, err error) {
	// Sequential reference first, on its own fresh scenario sources.
	seqSpan := r.tr.begin("grid.sequential", op, 0, false)
	ref, seqTook, err := r.w.reference(ctx, b)
	r.tr.end(seqSpan)
	if err != nil {
		return run, ref, err
	}
	r.vals.add("grid.sequential_ms", ms(seqTook.Nanoseconds()))

	jobs, set, err := r.w.opJobs(b)
	if err != nil {
		return run, ref, err
	}
	results := make([]map[string]*alm.Result, len(jobs))
	var runNS, deployNS int64
	for k, j := range jobs {
		hold, err := r.replayDeploy(ctx, j, op)
		if err != nil {
			return run, ref, err
		}
		deployNS += hold

		id := r.tr.begin("eeb.split", op, 0, false)
		blocks, err := j.split()
		r.vals.add("eeb.split_us", float64(r.tr.end(id))/1e3)
		if err != nil {
			return run, ref, err
		}

		runSpan := r.tr.begin("grid.run", op, 0, false)
		master := &grid.Master{Workers: r.nproc, Seed: j.spec.Seed}
		results[k], err = master.Run(ctx, blocks)
		runNS += r.tr.end(runSpan)
		if err != nil {
			return run, ref, err
		}
		// One block of one job is probed per op: the plain job's first
		// block, or the first market-shocked module's (the derive path).
		if probeJob := min(1, len(jobs)-1); k == probeJob {
			if err := r.probeBlock(ctx, eeb.TypeB(blocks)[0], j, set, op, runSpan); err != nil {
				return run, ref, err
			}
		}
	}
	r.vals.add("grid.run_ms", ms(runNS))
	r.vals.add("grid.parallel_efficiency", float64(seqTook.Nanoseconds())/(float64(runNS)*float64(r.nproc)))
	r.vals.add("core.deploy_hold_ms_p50", ms(deployNS)/float64(len(jobs)))
	if set != nil {
		r.counts["stochastic.set_generated"] = float64(set.Generated())
	}
	return assemble(r.w, jobs, results), ref, nil
}

// replayDeploy times Deployer.DeploySeeded — the deploy-mutex hold of one
// job — and then its stages as probes: Algorithm 1's selection, the
// simulated cloud execution, and the retrain of the chosen architecture at
// the knowledge base's size of the moment.
func (r *replayer) replayDeploy(ctx context.Context, j opJob, op int) (int64, error) {
	f, c := j.params(), j.spec.Constraints
	id := r.tr.begin("core.deploy", op, 0, false)
	rep, err := r.d.DeploySeeded(ctx, f, c, j.spec.Seed)
	hold := r.tr.end(id)
	if err != nil {
		return 0, err
	}

	sel := r.tr.begin("provision.select", op, id, true)
	_, selErr := r.d.Selector().Select(ctx, f, c) // ErrUntrained on a cold KB is the measured path there
	r.vals.add("provision.select_ms_p50", ms(r.tr.end(sel)))
	cands := 0
	if selErr == nil {
		all, err := r.d.Selector().Candidates(ctx, f, c)
		if err != nil {
			return 0, err
		}
		cands = len(all)
	}
	r.vals.add("provision.candidates", float64(cands))

	slot := rep.Choice.Primary()
	rng := finmath.NewRNG(j.spec.Seed)
	const execReps = 50 // one launch is about a microsecond
	start := time.Now()
	for i := 0; i < execReps; i++ {
		cl, err := r.d.Provider().Launch(rng, slot.Type, slot.Nodes, rep.Choice.Tier)
		if err != nil {
			return 0, err
		}
		if _, err := cl.RunBlock(rng, f); err != nil {
			return 0, err
		}
		cl.Terminate()
	}
	execNS := time.Since(start).Nanoseconds() / execReps
	r.tr.add("cloud.exec", op, id, execNS)
	r.vals.add("cloud.exec_sim_us", float64(execNS)/1e3)

	arch := slot.Type.Name
	rt := r.tr.begin("ml.retrain", op, id, true)
	err = r.d.Predictor().RetrainArchitecture(r.d.KB(), arch)
	r.vals.add("ml.retrain_ms_p50", ms(r.tr.end(rt)))
	if err != nil {
		return 0, err
	}
	r.vals.add("ml.retrain_samples", float64(r.d.KB().Dataset(arch).Len()))

	predictUS := 0.0
	if r.d.Predictor().Trained(arch) {
		const reps = 200
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := r.d.Predictor().PredictSeconds(arch, slot.Nodes, f); err != nil {
				return 0, err
			}
		}
		predictUS = float64(time.Since(start).Nanoseconds()) / 1e3 / reps
	}
	r.vals.add("ml.predict_us", predictUS)
	return hold, nil
}

// probeBlock times Valuer.ValueRange over the block's whole outer range on
// one goroutine, then the layers underneath it as equal-shaped probes: the
// same number of scenario fills, fund walks and contract flow evaluations.
// What the probes do not explain is reported as alm.unattributed_share.
func (r *replayer) probeBlock(ctx context.Context, b *eeb.Block, j opJob, set *stochastic.Set, op, parent int) error {
	v, err := alm.NewValuer(b, j.spec.Seed)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.tr.begin("alm.value_range", op, parent, true)
	_, err = v.ValueRange(ctx, 0, b.Outer, nil)
	rangeNS := r.tr.end(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	r.vals.add("alm.value_range_ms", ms(rangeNS))
	r.vals.add("alm.ns_per_inner_path", float64(rangeNS)/float64(b.Outer*b.Inner))
	r.counts["alm.allocs_per_outer"] = float64(after.Mallocs-before.Mallocs) / float64(b.Outer)

	// The block's own source: fresh generation for a plain job, the derived
	// view over the (by now memoised) campaign Set otherwise.
	gen, err := stochastic.NewGenerator(b.Market)
	if err != nil {
		return err
	}
	fresh := stochastic.NewPathSource(gen, j.spec.Seed)
	src := b.Scenarios
	if src == nil {
		src = fresh
	}
	walk, err := probeWalk(b, src, true)
	if err != nil {
		return err
	}
	explained := walk.outerNS + walk.innerNS + walk.fundNS + walk.flowsNS
	generation := walk // the walk whose fills are fresh generation
	if set == nil {
		r.tr.add("stochastic.outer_fill", op, id, walk.outerNS)
		r.tr.add("stochastic.inner_fill", op, id, walk.innerNS)
	} else {
		r.tr.add("stochastic.derived_fill", op, id, walk.outerNS+walk.innerNS)
		r.vals.add("stochastic.derived_fill_ns_per_step",
			float64(walk.outerNS+walk.innerNS)/float64(walk.outerSteps+walk.innerSteps))
		// Fresh generation on the campaign's market, for the rows the plain
		// job reports: fills only, not a child of this value_range.
		if generation, err = probeWalk(b, fresh, false); err != nil {
			return err
		}
	}
	r.vals.add("stochastic.outer_fill_ns_per_step", float64(generation.outerNS)/float64(generation.outerSteps))
	r.vals.add("stochastic.inner_fill_ns_per_step", float64(generation.innerNS)/float64(generation.innerSteps))
	r.tr.add("fund.returns", op, id, walk.fundNS)
	r.tr.add("policy.flows", op, id, walk.flowsNS)
	r.vals.add("fund.returns_ns_per_path", float64(walk.fundNS)/float64(walk.paths))
	r.vals.add("policy.flows_ns_per_contract", float64(walk.flowsNS)/float64(walk.paths*int64(len(b.Portfolio.Contracts))))
	r.vals.add("alm.unattributed_share", 1-float64(explained)/float64(rangeNS))
	return nil
}

// walkProbe is what one equal-shaped walk over a block measured.
type walkProbe struct {
	outerNS, innerNS       int64 // scenario fills
	fundNS, flowsNS        int64
	outerSteps, innerSteps int64 // path x step cells filled
	paths                  int64 // inner paths walked
}

// The panel capacities of alm's batched hot loop (its innerChunk and
// outerChunk), so the probes fill panels of the shape the valuer fills.
const (
	probeInnerChunk = 32
	probeOuterChunk = 8
)

// probeWalk repeats the shape of Valuer.ValueRange over the block — outer
// panels of 8, inner panels of 32 branched at year 1 — calling only the
// layers below alm: the source's batch fills and, when withFund is set,
// Fund.ReturnsInto per inner path and Contract.FlowsInto per contract and
// inner path.
func probeWalk(b *eeb.Block, src stochastic.Source, withFund bool) (walkProbe, error) {
	var p walkProbe
	ib, okI := src.(stochastic.InnerBatcher)
	ob, okO := src.(stochastic.OuterBatcher)
	if !okI || !okO {
		return p, fmt.Errorf("bench: scenario source %T does not batch", src)
	}
	pool := stochastic.NewBatchPool()
	inner, outer := ib.NewBatch(pool, probeInnerChunk), ib.NewBatch(pool, probeOuterChunk)
	if inner == nil || outer == nil {
		return p, fmt.Errorf("bench: scenario source %T has no panel shape", src)
	}
	fd, err := fund.New(b.Fund, b.Market)
	if err != nil {
		return p, err
	}
	maxTerm := b.Portfolio.MaxTerm()
	returns := make([]float64, maxTerm)
	book, market := make([]float64, maxTerm), make([]float64, maxTerm)
	idx, sums := make([]int, maxTerm+1), make([]float64, maxTerm)
	flows := policy.FlowSchedule{
		Death: make([]float64, maxTerm), Surrender: make([]float64, maxTerm), Survival: make([]float64, maxTerm),
	}
	for i0 := 0; i0 < b.Outer; i0 += probeOuterChunk {
		n := min(probeOuterChunk, b.Outer-i0)
		start := time.Now()
		ob.OuterBatch(i0, n, outer)
		p.outerNS += time.Since(start).Nanoseconds()
		p.outerSteps += int64(n * outer.View(0).Steps())
		for q := 0; q < n; q++ {
			for j0 := 0; j0 < b.Inner; j0 += probeInnerChunk {
				m := min(probeInnerChunk, b.Inner-j0)
				start := time.Now()
				ib.InnerBatch(i0+q, j0, m, outer.View(q), 1, inner)
				p.innerNS += time.Since(start).Nanoseconds()
				p.innerSteps += int64(m * inner.View(0).Steps())
				p.paths += int64(m)
				if !withFund {
					continue
				}
				for k := 0; k < m; k++ {
					start := time.Now()
					copy(returns[1:], fd.ReturnsInto(inner.View(k), maxTerm-1, book, market, idx))
					mid := time.Now()
					for _, c := range b.Portfolio.Contracts {
						if err := c.FlowsInto(returns, &flows, sums); err != nil {
							return p, err
						}
					}
					p.fundNS += mid.Sub(start).Nanoseconds()
					p.flowsNS += time.Since(mid).Nanoseconds()
				}
			}
		}
	}
	return p, nil
}

// layerConstants measures what does not depend on the op: the normal draw,
// and the service layer's own overhead on a valuation small enough for it
// to show.
func layerConstants(ctx context.Context, seed uint64, nproc int) (samples, error) {
	out := samples{}
	const draws = 2_000_000
	rng := finmath.NewRNG(seed)
	sink := 0.0
	start := time.Now()
	for i := 0; i < draws; i++ {
		sink += rng.NormFloat64()
	}
	out.add("finmath.norm_ns", float64(time.Since(start).Nanoseconds())/draws)
	if sink != sink { // keep the loop observable
		return nil, fmt.Errorf("bench: NaN normal draws")
	}

	// Service.Submit -> Result against Deployer.RunSimulation on the same
	// spec, alternating, each on a cold deployer so neither retrains.
	small, _ := workloadByName("small_warm")
	const reps = 20
	var viaService, direct []float64
	for i := 0; i < reps; i++ {
		spec, err := small.body(seed, i, nproc).jobSpec()
		if err != nil {
			return nil, err
		}
		d, err := core.NewDeployer(seed)
		if err != nil {
			return nil, err
		}
		svc, err := core.NewService(d, core.WithWorkers(nproc))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		id, err := svc.Submit(ctx, spec)
		if err == nil {
			_, err = svc.Result(ctx, id)
		}
		viaService = append(viaService, float64(time.Since(start).Nanoseconds())/1e3)
		svc.Close()
		if err != nil {
			return nil, err
		}
		d, err = core.NewDeployer(seed)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		_, err = d.RunSimulation(ctx, spec)
		direct = append(direct, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return nil, err
		}
	}
	out.add("core.service_overhead_us", median(viaService)-median(direct))
	return out, nil
}
