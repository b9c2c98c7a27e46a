package core

import (
	"context"
	"hash/fnv"
	"sort"

	"disarcloud/internal/alm"
	"disarcloud/internal/eeb"
	"disarcloud/internal/grid"
	"disarcloud/internal/proxyval"
)

// ProxySpec configures the proxy serving tier of a job: training-sample
// size, error budget, escalation cap and model family. Attaching one to a
// SimulationSpec switches the valuation from the distributed nested pipeline
// to the train → gate → escalate cascade of internal/proxyval; a campaign
// whose Base carries a ProxySpec runs all its shock modules through the
// proxy.
type ProxySpec = proxyval.Spec

// ProxyReport is the serving telemetry of one proxied job: per-block stats
// plus their merged totals, echoing the effective error budget the gate
// applied.
type ProxyReport struct {
	// PerBlock holds the serving stats of every type-B block, keyed by
	// block ID.
	PerBlock map[string]proxyval.Stats
	// Totals merges the per-block stats (counts summed, errors weighted).
	Totals proxyval.Stats
	// ErrorBudget is the resolved relative error budget of the gate.
	ErrorBudget float64
}

// ProxyTelemetry is the service-level aggregate over every proxied job the
// service has completed — the data behind GET /v1/proxy.
type ProxyTelemetry struct {
	// Jobs counts completed jobs that ran through the proxy tier.
	Jobs int `json:"jobs"`
	// Totals merges the ProxyReport totals of those jobs.
	Totals proxyval.Stats `json:"totals"`
	// HitRate is the fast-path fraction over all evaluated paths.
	HitRate float64 `json:"hit_rate"`
}

// blockSeed derives the model-randomness seed of one block from the job
// seed: stable in the block ID, independent across blocks, so adding or
// removing blocks never reshuffles another block's forest bootstrap.
func blockSeed(seed uint64, blockID string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(blockID))
	return seed ^ h.Sum64()
}

// runProxyValuation executes every type-B block through the proxy serving
// cascade, the blocks forked through the grid's fork/join at most workers at
// a time: per block, train the proxy on a seeded disjoint sample, answer all
// outer paths through the fast path, escalate gate busts to the full batched
// pipeline, and assemble. Progress events and failure handling are the grid
// master's (one counter, serialised, per completed outer path; the first
// failing or panicking block stops the rest and is the error returned);
// results are bit-deterministic in (blocks, seed, spec) and independent of
// the worker count.
func runProxyValuation(ctx context.Context, blocks []*eeb.Block, workers int, seed uint64, pspec ProxySpec, onProgress func(grid.Progress)) (map[string]*alm.Result, *ProxyReport, error) {
	typeB := eeb.TypeB(blocks)
	ordered := make([]*eeb.Block, len(typeB))
	copy(ordered, typeB)
	eeb.SortByComplexity(ordered)

	type blockOut struct {
		id    string
		res   *alm.Result
		stats proxyval.Stats
	}
	outs := make([]blockOut, len(ordered))
	progress := grid.NewProgressCounter(onProgress)
	err := grid.ForkJoin(ctx, len(ordered), max(workers, 1), func(ctx context.Context, bi int) error {
		b := ordered[bi]
		v, err := alm.NewValuer(b, seed)
		if err != nil {
			return err
		}
		p, err := proxyval.Train(ctx, v, pspec, blockSeed(seed, b.ID))
		if err != nil {
			return err
		}
		res, stats, err := p.Value(ctx, v, progress.OnPath(ordered[bi:bi+1]))
		if err != nil {
			return err
		}
		outs[bi] = blockOut{id: b.ID, res: res, stats: stats}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	results := make(map[string]*alm.Result, len(outs))
	rep := &ProxyReport{
		PerBlock:    make(map[string]proxyval.Stats, len(outs)),
		ErrorBudget: pspec.WithDefaults().ErrorBudget,
	}
	// Merge in a fixed order so the weighted totals are bit-reproducible.
	sort.Slice(outs, func(a, b int) bool { return outs[a].id < outs[b].id })
	for _, o := range outs {
		results[o.id] = o.res
		rep.PerBlock[o.id] = o.stats
		rep.Totals.Merge(o.stats)
	}
	return results, rep, nil
}

// recordProxy folds one completed proxied job into the service aggregate.
func (s *Service) recordProxy(rep *ProxyReport) {
	s.proxyMu.Lock()
	s.proxyJobs++
	s.proxyTotals.Merge(rep.Totals)
	s.proxyMu.Unlock()
}

// ProxyStatus returns the service-level proxy-serving telemetry: how many
// jobs ran through the tier, the merged proxy-vs-escalated split, and the
// overall fast-path hit rate. A service that never ran a proxied job
// returns the zero telemetry.
func (s *Service) ProxyStatus() ProxyTelemetry {
	s.proxyMu.Lock()
	defer s.proxyMu.Unlock()
	return ProxyTelemetry{
		Jobs:    s.proxyJobs,
		Totals:  s.proxyTotals,
		HitRate: s.proxyTotals.HitRate(),
	}
}
