package disarcloud_test

// Benchmark harness: one benchmark per table and figure of the paper's
// Section IV, plus the ablations. Each benchmark rebuilds its experiment
// from the shared campaign fixture and reports the headline quantities as
// custom metrics; run with
//
//	go test -bench=. -benchmem
//
// The printed rows/series themselves are produced by cmd/experiments; the
// benchmarks measure the cost of regenerating each result and assert, via
// b.Fatal, that the reproduction stays inside the paper's qualitative
// bands.

import (
	"context"
	"disarcloud"
	"math"
	"os"
	"sync"
	"testing"

	"disarcloud/internal/benchgate"
	"disarcloud/internal/cloud"
	"disarcloud/internal/core"
	"disarcloud/internal/eeb"
	"disarcloud/internal/experiments"
	"disarcloud/internal/finmath"
	"disarcloud/internal/kb"
	"disarcloud/internal/provision"
)

// benchCampaign lazily builds the Section IV campaign with a ~1,000-sample
// knowledge base, shared across benchmarks (building it inside every
// benchmark would swamp the measurements).
var (
	benchOnce sync.Once
	benchC    *experiments.Campaign
	benchErr  error
)

func campaignFixture(b *testing.B) *experiments.Campaign {
	b.Helper()
	benchOnce.Do(func() {
		benchC, benchErr = experiments.NewCampaign(2016, core.WithRetrainEvery(10))
		if benchErr != nil {
			return
		}
		benchErr = benchC.BuildKB(1000)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchC
}

func benchKB(b *testing.B) *kb.KB { return campaignFixture(b).Deployer.KB() }

// BenchmarkTableI regenerates the delta-bar accuracy matrix (Table I):
// per-architecture 40/60 split, six learners trained and evaluated.
func BenchmarkTableI(b *testing.B) {
	k := benchKB(b)
	var res *experiments.AccuracyResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.EvaluateAccuracy(k, uint64(i)+7, 0.4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	worst := 0.0
	for _, m := range res.Models {
		for _, a := range res.Architectures {
			if d := math.Abs(res.DeltaBar[m][a]); d > worst {
				worst = d
			}
		}
	}
	if worst > 800 {
		b.Fatalf("delta-bar magnitude %v s outside the paper's band", worst)
	}
	b.ReportMetric(worst, "worst|deltabar|_s")
	if b.N == 1 {
		res.PrintTableI(os.Stdout)
	}
}

// BenchmarkTableII regenerates the per-simulation average cost per
// architecture (Table II).
func BenchmarkTableII(b *testing.B) {
	k := benchKB(b)
	var res *experiments.CostResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.EvaluateCosts(k)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.TotalUSD, "campaign_total_$")
	b.ReportMetric(res.AvgCostUSD[res.Cheapest()], "cheapest_avg_$")
	if b.N == 1 {
		res.PrintTableII(os.Stdout)
	}
}

// BenchmarkFigure2 regenerates the real-vs-predicted scatter and reports
// the worst per-model correlation (the diagonal-clustering criterion).
func BenchmarkFigure2(b *testing.B) {
	k := benchKB(b)
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.EvaluateAccuracy(k, uint64(i)+7, 0.4)
		if err != nil {
			b.Fatal(err)
		}
		worst = 1.0
		for _, c := range res.Figure2Correlation() {
			if c < worst {
				worst = c
			}
		}
	}
	if worst < 0.85 {
		b.Fatalf("worst model correlation %.3f — scatter not on the diagonal", worst)
	}
	b.ReportMetric(worst, "worst_corr")
}

// BenchmarkFigure3 regenerates the error histogram and reports the share of
// ensemble predictions within 200 s (paper: ~80%).
func BenchmarkFigure3(b *testing.B) {
	k := benchKB(b)
	var share float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.EvaluateAccuracy(k, uint64(i)+7, 0.4)
		if err != nil {
			b.Fatal(err)
		}
		share = res.ShareWithin(200)
	}
	if share < 0.70 {
		b.Fatalf("only %.0f%% of predictions within 200 s", 100*share)
	}
	b.ReportMetric(100*share, "pct_within_200s")
	if b.N == 1 {
		res, _ := experiments.EvaluateAccuracy(k, 7, 0.4)
		res.PrintFigure3(os.Stdout)
	}
}

// BenchmarkFigure4 regenerates the cloud-vs-sequential speedups.
func BenchmarkFigure4(b *testing.B) {
	c := campaignFixture(b)
	pm := cloud.DefaultPerfModel()
	var res *experiments.SpeedupResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.EvaluateSpeedup(pm, c.Workloads)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	maxS := 0.0
	for _, a := range res.Architectures {
		if res.Speedup[a] > maxS {
			maxS = res.Speedup[a]
		}
		if res.Speedup[a] < 2 || res.Speedup[a] > 10 {
			b.Fatalf("%s speedup %v outside Figure 4's axis", a, res.Speedup[a])
		}
	}
	b.ReportMetric(maxS, "max_speedup_x")
	if b.N == 1 {
		res.PrintFigure4(os.Stdout)
	}
}

// BenchmarkFinalComparison regenerates the closing experiment: forced
// high-end and forced cost-effective deploys versus the ML selection under
// a binding deadline.
func BenchmarkFinalComparison(b *testing.B) {
	c := campaignFixture(b)
	f := c.Workloads[0]
	for _, w := range c.Workloads {
		if w.Complexity() > f.Complexity() {
			f = w
		}
	}
	pm := cloud.DefaultPerfModel()
	var res *experiments.FinalComparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.EvaluateFinalComparison(c.Deployer.Selector(), pm, f,
			provision.Constraints{TmaxSeconds: 0, MaxNodes: 8, Epsilon: 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res.CostDecrease <= 0 || res.TimeReduction <= 0 {
		b.Fatalf("shape broken: cost %.1f%%, time %.1f%%",
			100*res.CostDecrease, 100*res.TimeReduction)
	}
	b.ReportMetric(100*res.CostDecrease, "cost_decrease_pct")
	b.ReportMetric(100*res.TimeReduction, "time_reduction_pct")
	if b.N == 1 {
		res.PrintFinal(os.Stdout)
	}
}

// BenchmarkAblationEnsemble measures the single-model-vs-ensemble ablation.
func BenchmarkAblationEnsemble(b *testing.B) {
	k := benchKB(b)
	var res *experiments.EnsembleAblation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.EvaluateEnsembleAblation(k, uint64(i)+3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.MAE["Ensemble"], "ensemble_mae_s")
	b.ReportMetric(res.WorstSingle, "worst_single_mae_s")
}

// BenchmarkAblationHeterogeneous measures the homogeneous-vs-mixed deploy
// ablation (the paper's future work).
func BenchmarkAblationHeterogeneous(b *testing.B) {
	c := campaignFixture(b)
	pm := cloud.DefaultPerfModel()
	f := c.Workloads[4]
	var res *experiments.HeterogeneousAblation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.EvaluateHeterogeneousAblation(pm, f,
			[]float64{1.6, 1.3, 1.0, 0.85}, 6, uint64(i)+5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	gain := 0.0
	for i := range res.Deadlines {
		g := 1 - res.HeteroCost[i]/res.HomoCost[i]
		if g > gain {
			gain = g
		}
	}
	b.ReportMetric(100*gain, "best_hetero_gain_pct")
}

// BenchmarkSelfOptimizingLoop measures one full Deploy iteration (Algorithm
// 1 + simulated execution + record + retrain) against the trained system —
// the steady-state cost of the paper's loop.
func BenchmarkSelfOptimizingLoop(b *testing.B) {
	c := campaignFixture(b)
	cons := provision.Constraints{TmaxSeconds: 900, MaxNodes: 8, Epsilon: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := c.Workloads[i%len(c.Workloads)]
		if _, err := c.Deployer.Deploy(context.Background(), f, cons); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithm1Selection isolates the configuration search of
// Algorithm 1 (no execution, no retraining).
func BenchmarkAlgorithm1Selection(b *testing.B) {
	c := campaignFixture(b)
	cons := provision.Constraints{TmaxSeconds: 900, MaxNodes: 8, Epsilon: 0}
	f := c.Workloads[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Deployer.Selector().Select(context.Background(), f, cons); err != nil {
			b.Fatal(err)
		}
	}
}

// retrainFixture lazily builds the knowledge base that
// `cmd/kbgen -seed 2016 -retrain-every 5 -n 600` writes — the one bench/'s
// small_warm workload boots its daemon on.
var retrainFixture = sync.OnceValues(func() (*kb.KB, error) {
	c, err := experiments.NewCampaign(2016, core.WithRetrainEvery(5))
	if err != nil {
		return nil, err
	}
	return c.Deployer.KB(), c.BuildKB(600)
})

// BenchmarkKBRetrain measures one incremental retraining step of the six
// learners on a production-size architecture slice: the largest of the
// small_warm fixture (c4.4xlarge, 452 samples), which every op of that
// workload retrains.
func BenchmarkKBRetrain(b *testing.B) {
	k, err := retrainFixture()
	if err != nil {
		b.Fatal(err)
	}
	arch, most := "", 0
	for _, a := range k.Architectures() {
		if n := len(k.ByArchitecture(a)); n > most {
			arch, most = a, n
		}
	}
	pred := provision.NewEnsemblePredictor(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pred.RetrainArchitecture(k, arch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(most), "samples")
}

// TestKBRetrainBenchSmoke gates BenchmarkKBRetrain against BENCH_pr24.json:
// allocs/op and bytes/op of the learn step are hardware-independent and
// hard-fail; its wall clock depends on how many cores train the suite, so
// ns/op only warns.
func TestKBRetrainBenchSmoke(t *testing.T) {
	benchgate.Run(t, "BENCH_pr24.json", []benchgate.Row{
		{Name: "BenchmarkKBRetrain", Bench: BenchmarkKBRetrain, BytesToo: true, NsWarnOnly: true},
	})
}

// BenchmarkGroundTruthSample measures drawing one noisy execution-time
// sample from the calibrated performance model.
func BenchmarkGroundTruthSample(b *testing.B) {
	pm := cloud.DefaultPerfModel()
	it, _ := cloud.TypeByName("c4.8xlarge")
	f := eeb.CharacteristicParams{
		RepresentativeContracts: 15, MaxHorizon: 25, FundAssets: 8,
		RiskFactors: 3, OuterPaths: 1000, InnerPaths: 50,
	}
	r := finmath.NewRNG(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pm.ExecSeconds(r, it, 4, f)
	}
}

// campaignBenchSpec is the base valuation of the stress-campaign benchmarks:
// big enough that scenario generation is a real share of the work, small
// enough to iterate.
func campaignBenchSpec(b *testing.B) disarcloud.SimulationSpec {
	b.Helper()
	gen := disarcloud.ItalianCompanySpecs()[0]
	gen.NumContracts = 15
	p, err := disarcloud.GeneratePortfolio(43, gen)
	if err != nil {
		b.Fatal(err)
	}
	// A correlated multi-factor market (two equities, one currency, credit):
	// the correlation structure makes path generation genuinely expensive —
	// exactly what the shared scenario set amortises across the modules.
	market := disarcloud.DefaultMarket(p.MaxTerm())
	market.Equities = append(market.Equities,
		disarcloud.DefaultMarket(p.MaxTerm()).Equities[0])
	market.Equities[1].S0, market.Equities[1].Sigma = 50, 0.22
	market.Currencies = []disarcloud.GBMParams{{S0: 1.1, Mu: 0.01, Sigma: 0.08}}
	corr := finmath.Identity(market.NumFactors())
	set := func(i, j int, v float64) { corr.Set(i, j, v); corr.Set(j, i, v) }
	set(0, 1, -0.2) // rate / equity 1
	set(0, 2, -0.15)
	set(1, 2, 0.6) // the two equities
	set(1, 3, 0.25)
	set(0, 4, 0.2) // rate / credit
	market.Corr = corr
	return disarcloud.SimulationSpec{
		Portfolio:   p,
		Fund:        disarcloud.TypicalItalianFund(6, market),
		Market:      market,
		Outer:       200,
		Inner:       10,
		Constraints: disarcloud.Constraints{TmaxSeconds: 3600, MaxNodes: 8, Epsilon: 0},
		MaxWorkers:  4,
		Seed:        42,
	}
}

// runCampaign executes one full 7-module standard-formula campaign on a
// fresh service and returns the report.
func runCampaign(b *testing.B, noReuse bool) *disarcloud.CampaignReport {
	b.Helper()
	d, err := disarcloud.NewDeployer(2016, disarcloud.WithRetrainEvery(100))
	if err != nil {
		b.Fatal(err)
	}
	svc, err := disarcloud.NewService(d, disarcloud.WithWorkers(4))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	id, err := svc.SubmitCampaign(context.Background(), disarcloud.CampaignSpec{
		Base:            campaignBenchSpec(b),
		NoScenarioReuse: noReuse,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := svc.CampaignResult(context.Background(), id)
	if err != nil {
		b.Fatal(err)
	}
	if rep.SCR.BSCR <= 0 {
		b.Fatal("campaign produced no capital requirement")
	}
	return rep
}

// BenchmarkCampaignReuse measures a 7-module standard-formula campaign with
// the shared scenario set: the base paths are generated once and every
// module derives its scenarios by shift/rescale.
func BenchmarkCampaignReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runCampaign(b, false)
	}
}

// BenchmarkCampaignIndependent is the baseline the reuse is measured
// against: the same campaign with every one of the 8 jobs regenerating its
// scenario paths (results are bit-identical to the reuse run).
func BenchmarkCampaignIndependent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runCampaign(b, true)
	}
}

// TestCampaignReuseBenchSmoke gates BenchmarkCampaignReuse against
// BENCH_pr27.json. The shared scenario set memoises one panel per outer path,
// not one scenario per inner path, and the campaign walks once per distinct
// market, so allocs/op and bytes/op are what a regression moves first and
// hard-fail; ns/op follows the runner's core count and only warns.
func TestCampaignReuseBenchSmoke(t *testing.T) {
	benchgate.Run(t, "BENCH_pr27.json", []benchgate.Row{
		{Name: "BenchmarkCampaignReuse", Bench: BenchmarkCampaignReuse, BytesToo: true, NsWarnOnly: true},
	})
}
