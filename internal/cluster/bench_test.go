package cluster

import (
	"context"
	"testing"
	"time"

	"disarcloud/internal/benchgate"
	"disarcloud/internal/core"
	"disarcloud/internal/eeb"
	"disarcloud/internal/finmath"
	"disarcloud/internal/fund"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
)

// BenchmarkClusterSlice is one shocked module of a fresh memoised campaign —
// a 25-contract block, 60 outer x 10 inner paths, rate + equity shock —
// through a coordinator and two loopback workers of two slots: block encode,
// four /v1/execute slices, the scenario plane and the gather. Every op is a
// new campaign (a new base seed), so every op pays the prefetch; the
// /v1/scenario exchanges it makes are reported beside the time.
// BENCH_pr18.json pins it; TestClusterSliceBenchSmoke gates it.
func BenchmarkClusterSlice(b *testing.B) {
	p, err := policy.Generate(finmath.NewRNG(5), policy.GeneratorSpec{
		Name:         "slice-bench",
		NumContracts: 25, MeanAge: 48, AgeSpread: 12,
		MinTerm: 5, MaxTerm: 25, MeanSum: 45000,
		EndowmentWeight: 0.85, AnnuityWeight: 0.05, ProtectionWeight: 0.10,
	})
	if err != nil {
		b.Fatal(err)
	}
	market := testMarket(p.MaxTerm())
	ref := &stochastic.Ref{
		Market:    market,
		Transform: stochastic.Transform{RateShift: 0.01, EquityFactor: 0.61},
		Memoize:   true,
	}
	blocks, err := eeb.SplitPortfolio(p, fund.TypicalItalianFund(5, market), market,
		eeb.SplitSpec{MaxContractsPerBlock: 25, Outer: 60, Inner: 10, ScenarioRef: ref})
	if err != nil {
		b.Fatal(err)
	}
	blocks = eeb.TypeB(blocks)
	// A late heartbeat on a loaded box must not cost a worker its slices.
	coord, workers := startCluster(b, 2, CoordinatorConfig{DeadAfter: time.Minute})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.Seed = uint64(i) + 1
		// The coordinator assembles over the live source, as a campaign's does.
		src := liveSource(b, ref)
		for _, blk := range blocks {
			blk.Scenarios = src
		}
		if _, err := coord.RunBlocks(context.Background(), core.BlockRunRequest{Blocks: blocks, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := coord.Status(); st.SliceFailures != 0 || st.LocalFallbacks != 0 {
		b.Fatalf("%d slice failures, %d local fallbacks", st.SliceFailures, st.LocalFallbacks)
	}
	b.ReportMetric(float64(scenarioExchanges(workers[0])+scenarioExchanges(workers[1]))/float64(b.N), "exchanges/op")
}

// TestClusterSliceBenchSmoke gates BenchmarkClusterSlice against the
// committed BENCH_pr18.json row. allocs/op is the hardware-independent
// figure: it holds the worker to the batched walk (the scalar walk paid a
// transformed scenario per inner path) and to one exchange per slice and
// owner (a fetch per path paid a request and a decode each). ns/op follows
// the runner's core count and only warns.
func TestClusterSliceBenchSmoke(t *testing.T) {
	benchgate.Run(t, "../../BENCH_pr18.json", []benchgate.Row{
		{Name: "BenchmarkClusterSlice", Bench: BenchmarkClusterSlice, NsWarnOnly: true},
	})
}
