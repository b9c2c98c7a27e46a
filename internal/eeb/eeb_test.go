package eeb

import (
	"math"
	"strings"
	"testing"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/finmath"
	"disarcloud/internal/fund"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
)

func testMarket(horizon int) stochastic.Config {
	return stochastic.Config{
		Horizon:      horizon,
		StepsPerYear: 1,
		Rate: stochastic.VasicekParams{
			R0: 0.02, Speed: 0.3, MeanP: 0.03, MeanQ: 0.025, Sigma: 0.01,
		},
		Equities: []stochastic.GBMParams{{S0: 100, Mu: 0.06, Sigma: 0.18}},
		Credit:   stochastic.CIRParams{L0: 0.01, Speed: 0.5, Mean: 0.015, Sigma: 0.04},
	}
}

func testPortfolio(t *testing.T, n int) *policy.Portfolio {
	t.Helper()
	contracts := make([]policy.Contract, n)
	for i := range contracts {
		contracts[i] = policy.Contract{
			Kind: policy.Endowment, Age: 40 + i, Gender: actuarial.Male,
			Term: 10 + i%5, InsuredSum: 10000, Beta: 0.8, TechnicalRate: 0.02,
			Count: 100,
		}
	}
	p := &policy.Portfolio{Name: "test", Contracts: contracts}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func testBlock(t *testing.T) *Block {
	t.Helper()
	market := testMarket(20)
	return &Block{
		ID:        "test/B1",
		Type:      ALMValuation,
		Portfolio: testPortfolio(t, 6),
		Fund:      fund.TypicalItalianFund(4, market),
		Market:    market,
		Outer:     100,
		Inner:     10,
	}
}

func TestBlockValidate(t *testing.T) {
	b := testBlock(t)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Block)
	}{
		{"no id", func(b *Block) { b.ID = "" }},
		{"bad type", func(b *Block) { b.Type = 0 }},
		{"nil portfolio", func(b *Block) { b.Portfolio = nil }},
		{"zero outer", func(b *Block) { b.Outer = 0 }},
		{"zero inner", func(b *Block) { b.Inner = 0 }},
		{"short horizon", func(b *Block) { b.Market.Horizon = 5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bb := testBlock(t)
			tc.mutate(bb)
			if err := bb.Validate(); err == nil {
				t.Fatal("invalid block accepted")
			}
		})
	}
}

func TestTypeString(t *testing.T) {
	if ActuarialValuation.String() != "A" || ALMValuation.String() != "B" {
		t.Fatal("Type.String mismatch")
	}
	if Type(7).String() != "Type(7)" {
		t.Fatal("unknown type formatting")
	}
}

func TestParamsExtraction(t *testing.T) {
	b := testBlock(t)
	p := b.Params()
	if p.RepresentativeContracts != 6 {
		t.Fatalf("contracts = %d", p.RepresentativeContracts)
	}
	if p.MaxHorizon != 14 { // terms are 10..14
		t.Fatalf("horizon = %d", p.MaxHorizon)
	}
	if p.FundAssets != 4 {
		t.Fatalf("assets = %d", p.FundAssets)
	}
	if p.RiskFactors != 3 { // rate + 1 equity + credit
		t.Fatalf("risk factors = %d", p.RiskFactors)
	}
	if p.OuterPaths != 100 || p.InnerPaths != 10 {
		t.Fatalf("paths = %d/%d", p.OuterPaths, p.InnerPaths)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	p := CharacteristicParams{1, 1, 1, 1, 1, 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.MaxHorizon = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestFeaturesOrder(t *testing.T) {
	p := CharacteristicParams{10, 20, 5, 4, 1000, 50}
	f := p.Features()
	want := []float64{10, 20, 5, 4, 1000, 50}
	if len(f) != len(want) || len(f) != len(FeatureNames()) {
		t.Fatalf("feature vector length %d", len(f))
	}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("feature %d = %v, want %v", i, f[i], want[i])
		}
	}
}

func TestComplexityMonotone(t *testing.T) {
	base := CharacteristicParams{10, 20, 5, 4, 1000, 50}
	c0 := base.Complexity()
	for name, mutate := range map[string]func(*CharacteristicParams){
		"contracts": func(p *CharacteristicParams) { p.RepresentativeContracts *= 2 },
		"horizon":   func(p *CharacteristicParams) { p.MaxHorizon *= 2 },
		"assets":    func(p *CharacteristicParams) { p.FundAssets *= 2 },
		"factors":   func(p *CharacteristicParams) { p.RiskFactors *= 2 },
		"outer":     func(p *CharacteristicParams) { p.OuterPaths *= 2 },
		"inner":     func(p *CharacteristicParams) { p.InnerPaths *= 2 },
	} {
		p := base
		mutate(&p)
		if p.Complexity() <= c0 {
			t.Errorf("complexity not increasing in %s", name)
		}
	}
}

func TestSplitPortfolio(t *testing.T) {
	market := testMarket(20)
	p := testPortfolio(t, 10)
	f := fund.TypicalItalianFund(4, market)
	blocks, err := SplitPortfolio(p, f, market, SplitSpec{
		MaxContractsPerBlock: 4, Outer: 100, Inner: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 type-A + ceil(10/4)=3 type-B.
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(blocks))
	}
	if blocks[0].Type != ActuarialValuation {
		t.Fatal("first block should be type A")
	}
	bBlocks := TypeB(blocks)
	if len(bBlocks) != 3 {
		t.Fatalf("got %d type-B blocks", len(bBlocks))
	}
	covered := 0
	for _, b := range bBlocks {
		covered += b.Portfolio.NumRepresentative()
		if !strings.HasPrefix(b.ID, "test/B") {
			t.Fatalf("bad block ID %q", b.ID)
		}
	}
	if covered != 10 {
		t.Fatalf("type-B blocks cover %d contracts, want 10", covered)
	}
}

func TestSplitPortfolioNoSlicing(t *testing.T) {
	market := testMarket(20)
	p := testPortfolio(t, 5)
	blocks, err := SplitPortfolio(p, fund.TypicalItalianFund(3, market), market,
		SplitSpec{Outer: 10, Inner: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 { // A + single B
		t.Fatalf("got %d blocks", len(blocks))
	}
}

func TestSplitNilPortfolio(t *testing.T) {
	market := testMarket(20)
	if _, err := SplitPortfolio(nil, fund.TypicalItalianFund(3, market), market,
		SplitSpec{Outer: 1, Inner: 1}); err == nil {
		t.Fatal("nil portfolio accepted")
	}
}

func TestSortByComplexity(t *testing.T) {
	market := testMarket(20)
	p := testPortfolio(t, 9)
	blocks, err := SplitPortfolio(p, fund.TypicalItalianFund(3, market), market,
		SplitSpec{MaxContractsPerBlock: 2, Outer: 100, Inner: 10})
	if err != nil {
		t.Fatal(err)
	}
	bs := TypeB(blocks)
	SortByComplexity(bs)
	for i := 1; i < len(bs); i++ {
		if bs[i].Complexity() > bs[i-1].Complexity() {
			t.Fatal("blocks not sorted by decreasing complexity")
		}
	}
}

func TestGeneratedPortfolioSplit(t *testing.T) {
	// End-to-end: generator output splits into valid blocks.
	rng := finmath.NewRNG(1)
	spec := policy.ItalianCompanySpecs()[1]
	p, err := policy.Generate(rng, spec)
	if err != nil {
		t.Fatal(err)
	}
	market := testMarket(spec.MaxTerm)
	blocks, err := SplitPortfolio(p, fund.TypicalItalianFund(8, market), market,
		SplitSpec{MaxContractsPerBlock: 20, Outer: 1000, Inner: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := b.Validate(); err != nil {
			t.Fatalf("block %s invalid: %v", b.ID, err)
		}
	}
}

func TestBiometricValidateAndScales(t *testing.T) {
	var zero Biometric
	if !zero.IsZero() || zero.MortalityScale() != 1 || zero.LapseScale() != 1 {
		t.Fatal("zero Biometric is not the best-estimate basis")
	}
	if err := zero.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Biometric{MortalityFactor: -0.1}).Validate(); err == nil {
		t.Fatal("negative mortality factor accepted")
	}
	if err := (Biometric{LapseFactor: -1}).Validate(); err == nil {
		t.Fatal("negative lapse factor accepted")
	}
	// NaN fails every ordered comparison, so "f < 0" let it through; +Inf
	// clamps every probability to 1.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (Biometric{MortalityFactor: f}).Validate(); err == nil {
			t.Errorf("mortality factor %v accepted", f)
		}
		if err := (Biometric{LapseFactor: f}).Validate(); err == nil {
			t.Errorf("lapse factor %v accepted", f)
		}
	}
	if err := (Biometric{MortalityFactor: math.MaxFloat64, LapseFactor: 0.5}).Validate(); err != nil {
		t.Errorf("finite factors refused: %v", err)
	}
	got := Biometric{MortalityFactor: 1.15}.Compose(Biometric{MortalityFactor: 0.8, LapseFactor: 1.5})
	if math.Abs(got.MortalityScale()-1.15*0.8) > 1e-12 || got.LapseScale() != 1.5 {
		t.Fatalf("compose = %+v", got)
	}
}

func TestBlockValidateRejectsBadBiometric(t *testing.T) {
	b := testBlock(t)
	b.Biometric = Biometric{LapseFactor: -2}
	if err := b.Validate(); err == nil {
		t.Fatal("block with negative lapse factor validated")
	}
}

func TestSplitPortfolioStampsBiometricAndScenarios(t *testing.T) {
	market := testMarket(20)
	p := testPortfolio(t, 30)
	gen, err := stochastic.NewGenerator(market)
	if err != nil {
		t.Fatal(err)
	}
	set := stochastic.NewSet(gen, 1)
	bio := Biometric{MortalityFactor: 1.15}
	blocks, err := SplitPortfolio(p, fund.TypicalItalianFund(4, market), market, SplitSpec{
		MaxContractsPerBlock: 10, Outer: 50, Inner: 5,
		Biometric: bio, Scenarios: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if b.Biometric != bio {
			t.Fatalf("block %s biometric %+v, want %+v", b.ID, b.Biometric, bio)
		}
		if b.Type == ALMValuation && b.Scenarios != stochastic.Source(set) {
			t.Fatalf("type-B block %s missing the shared scenario source", b.ID)
		}
	}
}

// sliceSource is a scenario source of a non-comparable dynamic type: == on
// two of them would panic.
type sliceSource struct{ paths []*stochastic.Scenario }

func (s sliceSource) Outer(i int) *stochastic.Scenario { return s.paths[i] }
func (s sliceSource) Inner(i, j int, outer *stochastic.Scenario, year float64) *stochastic.Scenario {
	return s.paths[i]
}

func TestGroupWalks(t *testing.T) {
	split := func(name string, mutate func(*SplitSpec, *fund.Config, *stochastic.Config)) []*Block {
		t.Helper()
		// Built from scratch every time: grouping must not lean on shared pointers.
		market := testMarket(20)
		f := fund.TypicalItalianFund(4, market)
		spec := SplitSpec{MaxContractsPerBlock: 10, Outer: 50, Inner: 5}
		if mutate != nil {
			mutate(&spec, &f, &market)
		}
		p := testPortfolio(t, 30)
		p.Name = name
		blocks, err := SplitPortfolio(p, f, market, spec)
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	gen, err := stochastic.NewGenerator(testMarket(20))
	if err != nil {
		t.Fatal(err)
	}
	setA, setB := stochastic.NewSet(gen, 1), stochastic.NewSet(gen, 1)
	ref := func(seed uint64) *stochastic.Ref {
		return &stochastic.Ref{Market: testMarket(20), Seed: seed, Memoize: true}
	}

	base := split("base", nil)
	ids := func(group []*Block) string {
		var out []string
		for _, b := range group {
			out = append(out, b.ID)
		}
		return strings.Join(out, " ")
	}
	if groups := GroupWalks(base); len(groups) != 1 || ids(groups[0]) != "base/B1 base/B2 base/B3" {
		t.Fatalf("one split grouped into %d walks", len(groups))
	}

	cases := []struct {
		name   string
		other  []*Block
		shared bool
	}{
		{"equal configs built apart", split("twin", nil), true},
		{"stressed biometric basis", split("bio", func(s *SplitSpec, _ *fund.Config, _ *stochastic.Config) {
			s.Biometric = Biometric{MortalityFactor: 1.15}
		}), true},
		{"other outer size", split("outer", func(s *SplitSpec, _ *fund.Config, _ *stochastic.Config) { s.Outer = 51 }), false},
		{"other inner size", split("inner", func(s *SplitSpec, _ *fund.Config, _ *stochastic.Config) { s.Inner = 6 }), false},
		{"other fund", split("fund", func(_ *SplitSpec, f *fund.Config, _ *stochastic.Config) {
			f.Assets[0].Weight += 0.01
			f.Assets[1].Weight -= 0.01
		}), false},
		{"other market", split("market", func(_ *SplitSpec, _ *fund.Config, m *stochastic.Config) { m.Equities[0].Sigma = 0.2 }), false},
		{"live source against none", split("live", func(s *SplitSpec, _ *fund.Config, _ *stochastic.Config) { s.Scenarios = setA }), false},
		{"scenario ref against none", split("ref", func(s *SplitSpec, _ *fund.Config, _ *stochastic.Config) { s.ScenarioRef = ref(9) }), false},
	}
	for _, tc := range cases {
		groups := GroupWalks(append(append([]*Block{}, base...), tc.other...))
		if want := map[bool]int{true: 1, false: 2}[tc.shared]; len(groups) != want {
			t.Errorf("%s: %d walks, want %d", tc.name, len(groups), want)
		}
		total := 0
		for _, g := range groups {
			total += len(g)
			for _, b := range g {
				if b.Type != ALMValuation {
					t.Errorf("%s: type-%s block %s in a walk", tc.name, b.Type, b.ID)
				}
			}
		}
		if total != 6 {
			t.Errorf("%s: %d blocks across the walks, want 6", tc.name, total)
		}
	}

	withSource := func(name string, src stochastic.Source, r *stochastic.Ref) *Block {
		b := *TypeB(split(name, nil))[0]
		b.Scenarios, b.ScenarioRef = src, r
		return &b
	}
	pairs := []struct {
		name   string
		a, b   *Block
		shared bool
	}{
		{"the same live set", withSource("a", setA, nil), withSource("b", setA, nil), true},
		{"two live sets of one recipe", withSource("a", setA, nil), withSource("b", setB, nil), false},
		{"equal refs built apart", withSource("a", setA, ref(9)), withSource("b", setA, ref(9)), true},
		{"refs of different seeds", withSource("a", setA, ref(9)), withSource("b", setA, ref(10)), false},
		{"non-comparable source type", withSource("a", sliceSource{}, nil), withSource("b", sliceSource{}, nil), false},
	}
	for _, tc := range pairs {
		if got := SameWalk(tc.a, tc.b); got != tc.shared {
			t.Errorf("%s: SameWalk = %v, want %v", tc.name, got, tc.shared)
		}
	}
	if typeA := base[0]; SameWalk(typeA, typeA) {
		t.Error("a type-A block shares a walk")
	}
}
