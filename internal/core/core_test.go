package core

import (
	"context"
	"math"
	"sort"
	"testing"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/cloud"
	"disarcloud/internal/eeb"
	"disarcloud/internal/fund"
	"disarcloud/internal/kb"
	"disarcloud/internal/policy"
	"disarcloud/internal/provision"
	"disarcloud/internal/stochastic"
)

func workload() eeb.CharacteristicParams {
	return eeb.CharacteristicParams{
		RepresentativeContracts: 15, MaxHorizon: 25, FundAssets: 8,
		RiskFactors: 3, OuterPaths: 1000, InnerPaths: 50,
	}
}

func workloadMix() []eeb.CharacteristicParams {
	base := workload()
	var out []eeb.CharacteristicParams
	for _, contracts := range []int{5, 15, 40, 70} {
		for _, horizon := range []int{10, 25, 40} {
			f := base
			f.RepresentativeContracts = contracts
			f.MaxHorizon = horizon
			out = append(out, f)
		}
	}
	return out
}

func constraints() provision.Constraints {
	return provision.Constraints{TmaxSeconds: 900, MaxNodes: 6, Epsilon: 0.05}
}

func TestDeployerBootstrapPhase(t *testing.T) {
	d, err := NewDeployer(42)
	if err != nil {
		t.Fatal(err)
	}
	// First deploys run without any trained model: bootstrap mode.
	rep, err := d.Deploy(context.Background(), workload(), constraints())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Bootstrap {
		t.Fatal("first deploy should be a bootstrap")
	}
	if rep.ActualSeconds <= 0 || rep.ProRataUSD <= 0 || rep.BilledUSD <= 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
	if rep.KBSize != 1 {
		t.Fatalf("KB size = %d after first deploy", rep.KBSize)
	}
}

func TestSelfOptimizingLoopLeavesBootstrap(t *testing.T) {
	d, err := NewDeployer(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Bootstrap(context.Background(), workloadMix(), provision.MinSamplesToTrain, 6); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Deploy(context.Background(), workload(), constraints())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bootstrap {
		t.Fatal("still bootstrapping after knowledge base seeded")
	}
	if rep.PredictedSeconds <= 0 {
		t.Fatal("ML deploy without a prediction")
	}
	if rep.Choice.PredictedCost <= 0 {
		t.Fatal("ML deploy without a predicted cost")
	}
}

func TestDeployRecordsAndRetrains(t *testing.T) {
	d, _ := NewDeployer(11)
	if err := d.Bootstrap(context.Background(), workloadMix(), provision.MinSamplesToTrain, 6); err != nil {
		t.Fatal(err)
	}
	before := d.KB().Len()
	if _, err := d.Deploy(context.Background(), workload(), constraints()); err != nil {
		t.Fatal(err)
	}
	if d.KB().Len() != before+1 {
		t.Fatal("deploy did not record a sample")
	}
}

func TestDeployManual(t *testing.T) {
	d, _ := NewDeployer(3)
	rep, err := d.DeployManual(context.Background(), "c3.4xlarge", 2, workload())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Bootstrap {
		t.Fatal("manual deploy should be flagged as bootstrap")
	}
	if got := rep.Choice.Primary().Type.Name; got != "c3.4xlarge" {
		t.Fatalf("manual deploy used %s", got)
	}
	if _, err := d.DeployManual(context.Background(), "bogus", 2, workload()); err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if _, err := d.DeployManual(context.Background(), "c3.4xlarge", 0, workload()); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestDeployValidation(t *testing.T) {
	d, _ := NewDeployer(5)
	bad := workload()
	bad.MaxHorizon = 0
	if _, err := d.Deploy(context.Background(), bad, constraints()); err == nil {
		t.Fatal("invalid workload accepted")
	}
	if _, err := d.Deploy(context.Background(), workload(), provision.Constraints{}); err == nil {
		t.Fatal("invalid constraints accepted")
	}
}

func TestDeployFallbackOnImpossibleDeadline(t *testing.T) {
	d, _ := NewDeployer(13)
	if err := d.Bootstrap(context.Background(), workloadMix(), provision.MinSamplesToTrain, 6); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Deploy(context.Background(), workload(), provision.Constraints{
		TmaxSeconds: 1, MaxNodes: 6, Epsilon: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fallback {
		t.Fatal("impossible deadline should trigger the fastest-config fallback")
	}
}

func TestDeployDeterministicCampaign(t *testing.T) {
	run := func() []float64 {
		d, _ := NewDeployer(21)
		_ = d.Bootstrap(context.Background(), workloadMix(), provision.MinSamplesToTrain, 4)
		var times []float64
		for i := 0; i < 5; i++ {
			rep, err := d.Deploy(context.Background(), workload(), constraints())
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, rep.ActualSeconds)
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("campaign not reproducible from the seed")
		}
	}
}

func TestPredictionErrorShrinksWithKB(t *testing.T) {
	// The self-optimizing property: relative prediction error with a large
	// knowledge base is smaller than right after minimal bootstrap.
	d, _ := NewDeployer(31)
	if err := d.Bootstrap(context.Background(), workloadMix(), provision.MinSamplesToTrain, 6); err != nil {
		t.Fatal(err)
	}
	relErr := func(n int) float64 {
		sum := 0.0
		cnt := 0
		for i := 0; i < n; i++ {
			rep, err := d.Deploy(context.Background(), workloadMix()[i%len(workloadMix())], constraints())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Bootstrap || rep.PredictedSeconds == 0 {
				continue
			}
			sum += math.Abs(rep.PredictedSeconds-rep.ActualSeconds) / rep.ActualSeconds
			cnt++
		}
		if cnt == 0 {
			t.Fatal("no ML deploys measured")
		}
		return sum / float64(cnt)
	}
	early := relErr(30)
	// Feed many more observations through the loop.
	for i := 0; i < 150; i++ {
		if _, err := d.Deploy(context.Background(), workloadMix()[i%len(workloadMix())], provision.Constraints{
			TmaxSeconds: 900, MaxNodes: 6, Epsilon: 0.3, // exploration-heavy
		}); err != nil {
			t.Fatal(err)
		}
	}
	late := relErr(30)
	if late > early*1.1 {
		t.Fatalf("prediction error did not improve: early %.3f late %.3f", early, late)
	}
}

func TestWithKnowledgeBaseWarmStart(t *testing.T) {
	// Build a KB with one deployer, hand it to a fresh one: no bootstrap.
	d1, _ := NewDeployer(41)
	if err := d1.Bootstrap(context.Background(), workloadMix(), provision.MinSamplesToTrain, 4); err != nil {
		t.Fatal(err)
	}
	snapshot := kb.New()
	for _, s := range d1.KB().Samples() {
		if err := snapshot.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	d2, err := NewDeployer(42, WithKnowledgeBase(snapshot))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d2.Deploy(context.Background(), workload(), constraints())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bootstrap {
		t.Fatal("warm-started deployer still bootstrapping")
	}
}

func TestRunSimulationEndToEnd(t *testing.T) {
	market := stochastic.Config{
		Horizon:      12,
		StepsPerYear: 1,
		Rate: stochastic.VasicekParams{
			R0: 0.02, Speed: 0.3, MeanP: 0.03, MeanQ: 0.025, Sigma: 0.008,
		},
		Equities: []stochastic.GBMParams{{S0: 100, Mu: 0.06, Sigma: 0.18}},
		Credit:   stochastic.CIRParams{L0: 0.008, Speed: 0.5, Mean: 0.012, Sigma: 0.03},
	}
	p := &policy.Portfolio{Name: "e2e", Contracts: []policy.Contract{
		{Kind: policy.Endowment, Age: 45, Gender: actuarial.Male, Term: 10,
			InsuredSum: 10000, Beta: 0.8, TechnicalRate: 0.02, Count: 40},
		{Kind: policy.Annuity, Age: 62, Gender: actuarial.Female, Term: 12,
			InsuredSum: 1000, Beta: 0.8, TechnicalRate: 0.0, Count: 25},
	}}
	d, _ := NewDeployer(61)
	spec := SimulationSpec{
		Portfolio:   p,
		Fund:        fund.TypicalItalianFund(4, market),
		Market:      market,
		Outer:       40,
		Inner:       5,
		Constraints: provision.Constraints{TmaxSeconds: 3600, MaxNodes: 4, Epsilon: 0},
		MaxWorkers:  4,
		Seed:        99,
	}
	rep, err := d.RunSimulation(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BEL <= 0 || rep.SCR <= 0 {
		t.Fatalf("degenerate Solvency II result: BEL=%v SCR=%v", rep.BEL, rep.SCR)
	}
	if len(rep.Results) == 0 {
		t.Fatal("no block results")
	}
	if rep.Deploy == nil || rep.Deploy.ActualSeconds <= 0 {
		t.Fatal("missing deploy record")
	}
	if d.KB().Len() == 0 {
		t.Fatal("simulation did not feed the knowledge base")
	}
	if rep.Params.RepresentativeContracts != 2 {
		t.Fatalf("aggregate params wrong: %+v", rep.Params)
	}
}

// TestRunSimulationTotalsBitDeterministic: from three blocks on float
// addition order matters (eight make a stray order show within a few runs),
// so the portfolio totals must be summed in sorted block-ID order — repeated
// runs agree to the bit, and with that order.
func TestRunSimulationTotalsBitDeterministic(t *testing.T) {
	market := stochastic.Config{
		Horizon:      6,
		StepsPerYear: 1,
		Rate: stochastic.VasicekParams{
			R0: 0.02, Speed: 0.3, MeanP: 0.03, MeanQ: 0.025, Sigma: 0.008,
		},
		Equities: []stochastic.GBMParams{{S0: 100, Mu: 0.06, Sigma: 0.18}},
		Credit:   stochastic.CIRParams{L0: 0.008, Speed: 0.5, Mean: 0.012, Sigma: 0.03},
	}
	p := &policy.Portfolio{Name: "blocks"}
	for i := 0; i < 8*maxContractsPerBlock; i++ {
		p.Contracts = append(p.Contracts, policy.Contract{
			Kind: policy.Endowment, Age: 30 + i%35, Gender: actuarial.Male, Term: 3 + i%4,
			InsuredSum: 1000 * float64(1+i%7), Beta: 0.8, TechnicalRate: 0.01, Count: 1 + i%5,
		})
	}
	spec := SimulationSpec{
		Portfolio:   p,
		Fund:        fund.TypicalItalianFund(4, market),
		Market:      market,
		Outer:       6,
		Inner:       2,
		Constraints: provision.Constraints{TmaxSeconds: 3600, MaxNodes: 4, Epsilon: 0},
		MaxWorkers:  2,
		Seed:        7,
	}
	var firstBEL, firstSCR uint64
	for run := 0; run < 8; run++ {
		d, err := NewDeployer(61)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := d.RunSimulation(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) < 3 {
			t.Fatalf("%d blocks, want at least 3", len(rep.Results))
		}
		ids := make([]string, 0, len(rep.Results))
		for id := range rep.Results {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var bel, scr float64
		for _, id := range ids {
			bel += rep.Results[id].BEL
			scr += rep.Results[id].SCR
		}
		if math.Float64bits(rep.BEL) != math.Float64bits(bel) || math.Float64bits(rep.SCR) != math.Float64bits(scr) {
			t.Fatalf("run %d: totals BEL=%x SCR=%x are not the sorted-block-order sums %x / %x",
				run, math.Float64bits(rep.BEL), math.Float64bits(rep.SCR), math.Float64bits(bel), math.Float64bits(scr))
		}
		if run == 0 {
			firstBEL, firstSCR = math.Float64bits(rep.BEL), math.Float64bits(rep.SCR)
		} else if math.Float64bits(rep.BEL) != firstBEL || math.Float64bits(rep.SCR) != firstSCR {
			t.Fatalf("run %d: totals differ from run 0 in their bits", run)
		}
	}
}

func TestRunSimulationValidation(t *testing.T) {
	d, _ := NewDeployer(71)
	if _, err := d.RunSimulation(context.Background(), SimulationSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestWithCatalogRestriction(t *testing.T) {
	only, _ := cloud.TypeByName("c3.4xlarge")
	d, err := NewDeployer(81, WithCatalog([]cloud.InstanceType{only}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rep, err := d.Deploy(context.Background(), workload(), constraints())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Choice.Primary().Type.Name != "c3.4xlarge" {
			t.Fatal("catalog restriction ignored")
		}
	}
}
