package grid

import (
	"context"
	"fmt"
	"testing"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/benchgate"
	"disarcloud/internal/eeb"
	"disarcloud/internal/fund"
	"disarcloud/internal/policy"
)

func benchBlocks(b *testing.B) []*eeb.Block {
	b.Helper()
	market := testMarket(15)
	contracts := []policy.Contract{
		{Kind: policy.Endowment, Age: 45, Gender: actuarial.Male, Term: 10,
			InsuredSum: 10000, Beta: 0.8, TechnicalRate: 0.02, Count: 50},
		{Kind: policy.Annuity, Age: 60, Gender: actuarial.Female, Term: 15,
			InsuredSum: 1500, Beta: 0.8, TechnicalRate: 0.0, Count: 25},
		{Kind: policy.PureEndowment, Age: 35, Gender: actuarial.Male, Term: 12,
			InsuredSum: 15000, Beta: 0.9, TechnicalRate: 0.01, Count: 40},
		{Kind: policy.TermInsurance, Age: 40, Gender: actuarial.Male, Term: 8,
			InsuredSum: 80000, Beta: 0.8, TechnicalRate: 0.0, Count: 60},
	}
	p := &policy.Portfolio{Name: "grid-bench", Contracts: contracts}
	blocks, err := eeb.SplitPortfolio(p, fund.TypicalItalianFund(4, market), market,
		eeb.SplitSpec{MaxContractsPerBlock: 2, Outer: 60, Inner: 5})
	if err != nil {
		b.Fatal(err)
	}
	return blocks
}

// distributedRun benchmarks a full DiMaS-orchestrated run of the fixture
// blocks on the given number of workers.
func distributedRun(workers int) func(*testing.B) {
	return func(b *testing.B) {
		blocks := benchBlocks(b)
		m := &Master{Workers: workers, Seed: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Run(context.Background(), blocks); err != nil {
				b.Fatal(err)
			}
		}
	}
}

var benchWorkers = []int{1, 2, 4, 8}

// BenchmarkDistributedRun measures the run per worker count (the
// real-computation speedup the examples report). BENCH_pr20.json pins it;
// TestGridRunBenchSmoke gates it.
func BenchmarkDistributedRun(b *testing.B) {
	for _, workers := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", workers), distributedRun(workers))
	}
}

// TestGridRunBenchSmoke gates the four BenchmarkDistributedRun rows against
// the committed BENCH_pr20.json. allocs/op is the figure that matters: what a
// run allocates beyond its valuers is a result slice per block and a
// goroutine per rank, and anything per pair of ranks (a channel mesh) shows
// up at workers=8 at once. bytes/op is not gated (the panels are pooled) and
// ns/op follows the runner's core count, so it only warns.
func TestGridRunBenchSmoke(t *testing.T) {
	rows := make([]benchgate.Row, len(benchWorkers))
	for i, workers := range benchWorkers {
		rows[i] = benchgate.Row{
			Name:       fmt.Sprintf("BenchmarkDistributedRun/workers=%d", workers),
			Bench:      distributedRun(workers),
			NsWarnOnly: true,
		}
	}
	benchgate.Run(t, "../../BENCH_pr20.json", rows)
}

// BenchmarkSequentialRun is the single-unit baseline of Figure 4's ratio.
func BenchmarkSequentialRun(b *testing.B) {
	blocks := benchBlocks(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSequential(context.Background(), blocks, 1); err != nil {
			b.Fatal(err)
		}
	}
}
