package alm

import (
	"testing"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/eeb"
	"disarcloud/internal/fund"
	"disarcloud/internal/policy"
)

func benchBlock(b *testing.B, outer, inner int) *eeb.Block {
	b.Helper()
	market := stochasticMarket(20)
	contracts := []policy.Contract{
		{Kind: policy.Endowment, Age: 45, Gender: actuarial.Male, Term: 15,
			InsuredSum: 10000, Beta: 0.8, TechnicalRate: 0.02, Count: 100},
		{Kind: policy.Annuity, Age: 62, Gender: actuarial.Female, Term: 20,
			InsuredSum: 1200, Beta: 0.75, TechnicalRate: 0.0, Count: 50},
		{Kind: policy.PureEndowment, Age: 50, Gender: actuarial.Female, Term: 15,
			InsuredSum: 20000, Beta: 0.85, TechnicalRate: 0.01, Count: 30},
	}
	p := &policy.Portfolio{Name: "bench", Contracts: contracts}
	blk := &eeb.Block{
		ID: "bench/B1", Type: eeb.ALMValuation, Portfolio: p,
		Fund: fund.TypicalItalianFund(5, market), Market: market,
		Outer: outer, Inner: inner,
	}
	if err := blk.Validate(); err != nil {
		b.Fatal(err)
	}
	return blk
}

// BenchmarkValuationHotPath measures the scenario-generation + portfolio-
// revaluation inner loop end to end: a fixed range of outer paths, each with
// its inner risk-neutral bundle, through the same OuterSlice entry point the
// distributed grid engine drives. This is THE hot path the elastic
// provisioner buys VM-hours for; BENCH_pr25.json pins its ns/op and allocs/op
// and CI fails on >20% regression (TestValuationHotPathBenchSmoke).
func BenchmarkValuationHotPath(b *testing.B) {
	v, err := NewValuer(benchBlock(b, hotPathOuter, hotPathInner), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.OuterSlice(0, hotPathOuter); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPathOuter/hotPathInner fix the BenchmarkValuationHotPath workload so
// committed baselines stay comparable across runs.
const (
	hotPathOuter = 64
	hotPathInner = 20
)

// BenchmarkNestedOuterPath measures one outer scenario with its inner
// risk-neutral bundle — the unit of distributed work.
func BenchmarkNestedOuterPath(b *testing.B) {
	v, err := NewValuer(benchBlock(b, 1000, 20), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.ValueOuter(i%1000, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNestedFullSmall measures a complete small nested valuation.
func BenchmarkNestedFullSmall(b *testing.B) {
	blk := benchBlock(b, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := NewValuer(blk, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.ValueNested(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSMCCalibration measures proxy calibration (the n'_P x n'_Q
// sample plus the ridge regression).
func BenchmarkLSMCCalibration(b *testing.B) {
	v, err := NewValuer(benchBlock(b, 1000, 20), 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := LSMCSpec{CalibOuter: 120, CalibInner: 20, Degree: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.CalibrateProxy(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSMCVsNested reports the speed ratio the LSMC acceleration buys
// on a mid-size block (the reason DISAR uses it, Section II).
func BenchmarkLSMCVsNested(b *testing.B) {
	blk := benchBlock(b, 400, 25)
	v, err := NewValuer(blk, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := LSMCSpec{CalibOuter: 120, CalibInner: 25, Degree: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.ValueLSMC(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyEvaluate measures one proxy evaluation (the per-outer-path
// cost after LSMC replaces the inner simulations).
func BenchmarkProxyEvaluate(b *testing.B) {
	v, err := NewValuer(benchBlock(b, 1000, 20), 1)
	if err != nil {
		b.Fatal(err)
	}
	proxy, err := v.CalibrateProxy(LSMCSpec{CalibOuter: 120, CalibInner: 20, Degree: 2})
	if err != nil {
		b.Fatal(err)
	}
	f := v.Features(v.GenerateOuter(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = proxy.Evaluate(f)
	}
}
