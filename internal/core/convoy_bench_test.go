package core_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"disarcloud/internal/core"
	"disarcloud/internal/eeb"
	"disarcloud/internal/experiments"
	"disarcloud/internal/kb"
	"disarcloud/internal/provision"
)

// convoyFixture lazily builds the samples of the knowledge base that
// `cmd/kbgen -seed 2016 -retrain-every 5 -n 600` writes — the one bench/'s
// small_warm workload boots its daemon on.
var convoyFixture = sync.OnceValues(func() ([]kb.Sample, error) {
	c, err := experiments.NewCampaign(2016, core.WithRetrainEvery(5))
	if err != nil {
		return nil, err
	}
	if err := c.BuildKB(600); err != nil {
		return nil, err
	}
	return c.Deployer.KB().Samples(), nil
})

// BenchmarkDeployConvoy measures the learn step as concurrent clients pay
// it: GOMAXPROCS DeploySeeded calls of small_warm's op per iteration on that
// workload's knowledge base, held behind the deploy mutex until all are in
// flight so that they form exactly one full convoy. generations/deploy is
// the number of trainings a deploy costs: 1 when every deploy trains its own
// generation, 1/GOMAXPROCS when a convoy shares one.
func BenchmarkDeployConvoy(b *testing.B) {
	samples, err := convoyFixture()
	if err != nil {
		b.Fatal(err)
	}
	k := kb.New()
	for _, s := range samples {
		if err := k.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	d, err := core.NewDeployer(2016, core.WithKnowledgeBase(k))
	if err != nil {
		b.Fatal(err)
	}
	// The shape of small_warm's job {"contracts":6,"outer":30,"inner":3} as
	// the daemon's defaults describe it to the predictor.
	f := eeb.CharacteristicParams{
		RepresentativeContracts: 6, MaxHorizon: 20, FundAssets: 6,
		RiskFactors: 3, OuterPaths: 30, InnerPaths: 3,
	}
	// No exploration: an explored member may land on another architecture,
	// which is one more generation for its convoy and blurs the ratio.
	cons := provision.Constraints{TmaxSeconds: 900, MaxNodes: 8, Epsilon: 0}
	clients := runtime.GOMAXPROCS(0)
	gens := d.Predictor().Generations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release := d.HoldDeploys()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := d.DeploySeeded(context.Background(), f, cons, uint64(i*clients+c+1)); err != nil {
					b.Error(err)
				}
			}()
		}
		release(clients)
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(d.Predictor().Generations()-gens)/float64(b.N*clients), "generations/deploy")
	b.ReportMetric(float64(clients), "clients")
}
