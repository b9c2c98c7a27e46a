package policy

import (
	"math"
	"testing"
	"testing/quick"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/finmath"
)

func TestReadjustmentRateGuarantee(t *testing.T) {
	// When beta*I < i the guarantee binds and rho = 0.
	if got := ReadjustmentRate(0.8, 0.02, 0.01); got != 0 {
		t.Fatalf("guaranteed floor violated: rho = %v", got)
	}
	// When beta*I > i the excess over i is credited, deflated by 1+i.
	got := ReadjustmentRate(0.8, 0.02, 0.10)
	want := (0.08 - 0.02) / 1.02
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("rho = %v, want %v", got, want)
	}
}

func TestReadjustmentRateNeverNegative(t *testing.T) {
	if err := quick.Check(func(betaRaw, techRaw uint8, ret float64) bool {
		if math.IsNaN(ret) || math.IsInf(ret, 0) {
			return true
		}
		beta := 0.01 + 0.98*float64(betaRaw)/255
		tech := 0.04 * float64(techRaw) / 255
		return ReadjustmentRate(beta, tech, ret) >= 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadjustmentFactorFormsAgree(t *testing.T) {
	// Property: the two published forms of Eq. (2) are identical.
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		rng := finmath.NewRNG(seed)
		n := int(nRaw%30) + 1
		returns := make([]float64, n)
		for i := range returns {
			returns[i] = 0.2*rng.NormFloat64() + 0.03
		}
		beta, tech := 0.8, 0.02
		a := ReadjustmentFactor(beta, tech, returns)
		b := ReadjustmentFactorAlt(beta, tech, returns)
		return math.Abs(a-b) <= 1e-10*math.Max(a, 1)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadjustmentFactorAtLeastOne(t *testing.T) {
	// Phi_T >= 1 always: the guarantee means sums never decrease.
	rng := finmath.NewRNG(5)
	for trial := 0; trial < 100; trial++ {
		returns := make([]float64, 20)
		for i := range returns {
			returns[i] = 0.3 * rng.NormFloat64() // often very negative
		}
		if phi := ReadjustmentFactor(0.85, 0.01, returns); phi < 1 {
			t.Fatalf("Phi = %v < 1", phi)
		}
	}
}

func TestRevaluedSumsMonotone(t *testing.T) {
	returns := []float64{0.05, -0.10, 0.08, 0.0, 0.12}
	sums := RevaluedSums(1000, 0.8, 0.02, returns)
	if len(sums) != 5 {
		t.Fatalf("len = %d", len(sums))
	}
	prev := 1000.0
	for i, s := range sums {
		if s < prev-1e-9 {
			t.Fatalf("insured sum decreased at year %d: %v < %v", i+1, s, prev)
		}
		prev = s
	}
	// Cross-check final sum against Phi.
	phi := ReadjustmentFactor(0.8, 0.02, returns)
	if math.Abs(sums[4]-1000*phi) > 1e-9 {
		t.Fatalf("C_T = %v != C_0*Phi = %v", sums[4], 1000*phi)
	}
}

func validContract() Contract {
	return Contract{
		Kind: Endowment, Age: 45, Gender: actuarial.Male, Term: 10,
		InsuredSum: 50000, Beta: 0.8, TechnicalRate: 0.02, Count: 100,
		Penalty: 0.05, PenaltyYears: 5,
	}
}

func TestContractValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Contract)
	}{
		{"bad kind", func(c *Contract) { c.Kind = 0 }},
		{"negative age", func(c *Contract) { c.Age = -1 }},
		{"implausible age", func(c *Contract) { c.Age = 130 }},
		{"zero term", func(c *Contract) { c.Term = 0 }},
		{"zero sum", func(c *Contract) { c.InsuredSum = 0 }},
		{"beta 0", func(c *Contract) { c.Beta = 0 }},
		{"beta 1", func(c *Contract) { c.Beta = 1 }},
		{"negative tech", func(c *Contract) { c.TechnicalRate = -0.01 }},
		{"zero count", func(c *Contract) { c.Count = 0 }},
		{"penalty > 1", func(c *Contract) { c.Penalty = 1.5 }},
		{"negative penalty yrs", func(c *Contract) { c.PenaltyYears = -1 }},
		// Non-finite values would otherwise reach the constants Compile folds.
		{"NaN sum", func(c *Contract) { c.InsuredSum = math.NaN() }},
		{"+Inf sum", func(c *Contract) { c.InsuredSum = math.Inf(1) }},
		{"NaN beta", func(c *Contract) { c.Beta = math.NaN() }},
		{"NaN tech", func(c *Contract) { c.TechnicalRate = math.NaN() }},
		{"+Inf tech", func(c *Contract) { c.TechnicalRate = math.Inf(1) }},
		{"NaN penalty", func(c *Contract) { c.Penalty = math.NaN() }},
	}
	if err := validContract().Validate(); err != nil {
		t.Fatalf("valid contract rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := validContract()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("invalid contract accepted")
			}
		})
	}
}

func TestSurrenderFactorAmortises(t *testing.T) {
	c := validContract() // 5% penalty over 5 years
	f1 := c.SurrenderFactor(1)
	f5 := c.SurrenderFactor(5)
	f9 := c.SurrenderFactor(9)
	if !(f1 < f5 && f5 == 1 && f9 == 1) {
		t.Fatalf("penalty not amortising: f1=%v f5=%v f9=%v", f1, f5, f9)
	}
	if math.Abs(f1-(1-0.05*4.0/5.0)) > 1e-12 {
		t.Fatalf("f1 = %v", f1)
	}
	noPen := validContract()
	noPen.PenaltyYears = 0
	if noPen.SurrenderFactor(1) != 1 {
		t.Fatal("zero penalty years should mean no penalty")
	}
}

func TestFlowsEndowment(t *testing.T) {
	c := validContract()
	returns := make([]float64, c.Term)
	for i := range returns {
		returns[i] = 0.04
	}
	fs, err := c.Flows(returns)
	if err != nil {
		t.Fatal(err)
	}
	// Death benefit positive each year, maturity positive, survival zero.
	for k := 0; k < c.Term; k++ {
		if fs.Death[k] <= 0 {
			t.Fatalf("death benefit %v at year %d", fs.Death[k], k+1)
		}
		if fs.Survival[k] != 0 {
			t.Fatal("endowment should have no survival annuity")
		}
	}
	if fs.Maturity <= 0 {
		t.Fatal("endowment has no maturity benefit")
	}
	// Maturity equals final-year death benefit (same revalued sum).
	if math.Abs(fs.Maturity-fs.Death[c.Term-1]) > 1e-9 {
		t.Fatalf("maturity %v != final death %v", fs.Maturity, fs.Death[c.Term-1])
	}
}

func TestFlowsPureEndowment(t *testing.T) {
	c := validContract()
	c.Kind = PureEndowment
	returns := make([]float64, c.Term)
	fs, err := c.Flows(returns)
	if err != nil {
		t.Fatal(err)
	}
	for k := range fs.Death {
		if fs.Death[k] != 0 {
			t.Fatal("pure endowment pays nothing on death")
		}
	}
	if fs.Maturity <= 0 {
		t.Fatal("pure endowment must pay at maturity")
	}
}

func TestFlowsProtectionNoSurrender(t *testing.T) {
	c := validContract()
	c.Kind = TermInsurance
	returns := make([]float64, c.Term)
	fs, _ := c.Flows(returns)
	for k := range fs.Surrender {
		if fs.Surrender[k] != 0 {
			t.Fatal("term insurance should have no surrender value")
		}
	}
	if fs.Maturity != 0 {
		t.Fatal("term insurance has no maturity benefit")
	}
}

func TestFlowsAnnuity(t *testing.T) {
	c := validContract()
	c.Kind = Annuity
	returns := make([]float64, c.Term)
	for i := range returns {
		returns[i] = 0.05
	}
	fs, _ := c.Flows(returns)
	prev := 0.0
	for k := 0; k < c.Term; k++ {
		if fs.Survival[k] <= prev {
			t.Fatal("annuity payments should grow under positive revaluation")
		}
		prev = fs.Survival[k]
	}
	if fs.Maturity != 0 {
		t.Fatal("annuity has no maturity lump sum")
	}
}

func TestFlowsScaledByCount(t *testing.T) {
	c := validContract()
	c.Count = 1
	returns := make([]float64, c.Term)
	one, _ := c.Flows(returns)
	c.Count = 7
	seven, _ := c.Flows(returns)
	if math.Abs(seven.Death[0]-7*one.Death[0]) > 1e-9 {
		t.Fatal("flows not scaled by representative count")
	}
}

func TestFlowsInsufficientReturns(t *testing.T) {
	c := validContract()
	if _, err := c.Flows(make([]float64, c.Term-1)); err == nil {
		t.Fatal("short returns slice accepted")
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		PureEndowment: "pure-endowment", Endowment: "endowment",
		TermInsurance: "term-insurance", WholeLife: "whole-life",
		Annuity: "annuity", Kind(42): "Kind(42)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestPortfolioAggregates(t *testing.T) {
	p := &Portfolio{Name: "test", Contracts: []Contract{
		func() Contract { c := validContract(); c.Term = 10; c.Count = 100; return c }(),
		func() Contract { c := validContract(); c.Term = 30; c.Count = 50; return c }(),
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.MaxTerm() != 30 {
		t.Fatalf("MaxTerm = %d", p.MaxTerm())
	}
	if p.NumRepresentative() != 2 {
		t.Fatalf("NumRepresentative = %d", p.NumRepresentative())
	}
	if p.TotalPolicies() != 150 {
		t.Fatalf("TotalPolicies = %d", p.TotalPolicies())
	}
	want := 50000.0*100 + 50000.0*50
	if math.Abs(p.TotalInsuredSum()-want) > 1e-6 {
		t.Fatalf("TotalInsuredSum = %v", p.TotalInsuredSum())
	}
}

func TestPortfolioValidateEmpty(t *testing.T) {
	p := &Portfolio{Name: "empty"}
	if err := p.Validate(); err == nil {
		t.Fatal("empty portfolio accepted")
	}
}

func TestPortfolioSlice(t *testing.T) {
	contracts := make([]Contract, 10)
	for i := range contracts {
		contracts[i] = validContract()
	}
	p := &Portfolio{Name: "big", Contracts: contracts}
	slices := p.Slice(3)
	if len(slices) != 3 {
		t.Fatalf("Slice(3) produced %d parts", len(slices))
	}
	total := 0
	for _, s := range slices {
		total += len(s.Contracts)
	}
	if total != 10 {
		t.Fatalf("slices cover %d contracts, want 10", total)
	}
	// Sizes differ by at most one.
	if len(slices[0].Contracts)-len(slices[2].Contracts) > 1 {
		t.Fatal("unbalanced slices")
	}
	// More slices than contracts collapses to one per contract.
	if got := len(p.Slice(25)); got != 10 {
		t.Fatalf("Slice(25) produced %d parts, want 10", got)
	}
	if got := len(p.Slice(1)); got != 1 {
		t.Fatalf("Slice(1) produced %d parts", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := ItalianCompanySpecs()[0]
	p1, err := Generate(finmath.NewRNG(42), spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := Generate(finmath.NewRNG(42), spec)
	if len(p1.Contracts) != len(p2.Contracts) {
		t.Fatal("non-deterministic generation")
	}
	for i := range p1.Contracts {
		if p1.Contracts[i] != p2.Contracts[i] {
			t.Fatalf("contract %d differs between equal seeds", i)
		}
	}
}

func TestGenerateAllSpecsValid(t *testing.T) {
	rng := finmath.NewRNG(7)
	for _, spec := range ItalianCompanySpecs() {
		p, err := Generate(rng, spec)
		if err != nil {
			t.Fatalf("spec %q: %v", spec.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("spec %q produced invalid portfolio: %v", spec.Name, err)
		}
		if p.NumRepresentative() != spec.NumContracts {
			t.Fatalf("spec %q: %d contracts, want %d", spec.Name, p.NumRepresentative(), spec.NumContracts)
		}
		if p.MaxTerm() > spec.MaxTerm {
			t.Fatalf("spec %q: max term %d beyond %d", spec.Name, p.MaxTerm(), spec.MaxTerm)
		}
	}
}

func TestGenerateKindMix(t *testing.T) {
	spec := GeneratorSpec{
		Name: "annuities", NumContracts: 400, MeanAge: 60, AgeSpread: 5,
		MinTerm: 10, MaxTerm: 20, MeanSum: 10000,
		AnnuityWeight: 1.0,
	}
	p, err := Generate(finmath.NewRNG(9), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Contracts {
		if c.Kind != Annuity {
			t.Fatalf("pure annuity spec produced %v", c.Kind)
		}
	}
}

func TestGeneratorSpecValidate(t *testing.T) {
	bad := []GeneratorSpec{
		{Name: "n0", NumContracts: 0, MinTerm: 1, MaxTerm: 2, MeanSum: 1},
		{Name: "terms", NumContracts: 1, MinTerm: 5, MaxTerm: 2, MeanSum: 1},
		{Name: "sum", NumContracts: 1, MinTerm: 1, MaxTerm: 2, MeanSum: 0},
		{Name: "weights", NumContracts: 1, MinTerm: 1, MaxTerm: 2, MeanSum: 1,
			EndowmentWeight: 0.8, AnnuityWeight: 0.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %q accepted", s.Name)
		}
	}
}
