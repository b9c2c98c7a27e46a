package alm

import (
	"testing"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/eeb"
	"disarcloud/internal/fund"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
	"disarcloud/internal/stress"
)

// annuityBlock builds an annuity-heavy block, where the longevity stress
// must bite.
func annuityBlock(t *testing.T) *eeb.Block {
	t.Helper()
	market := stochasticMarket(25)
	contracts := []policy.Contract{
		{Kind: policy.Annuity, Age: 65, Gender: actuarial.Male, Term: 25,
			InsuredSum: 2000, Beta: 0.8, TechnicalRate: 0.0, Count: 50},
		{Kind: policy.Annuity, Age: 70, Gender: actuarial.Female, Term: 20,
			InsuredSum: 1500, Beta: 0.8, TechnicalRate: 0.0, Count: 40},
	}
	p := &policy.Portfolio{Name: "annuities", Contracts: contracts}
	b := &eeb.Block{
		ID: "annuities/B1", Type: eeb.ALMValuation, Portfolio: p,
		Fund: fund.TypicalItalianFund(4, market), Market: market,
		Outer: 60, Inner: 5,
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

// protectionBlock builds a term-insurance block, where the mortality stress
// must bite instead.
func protectionBlock(t *testing.T) *eeb.Block {
	t.Helper()
	market := stochasticMarket(15)
	contracts := []policy.Contract{
		{Kind: policy.TermInsurance, Age: 40, Gender: actuarial.Male, Term: 15,
			InsuredSum: 100000, Beta: 0.8, TechnicalRate: 0.0, Count: 80},
	}
	p := &policy.Portfolio{Name: "protection", Contracts: contracts}
	b := &eeb.Block{
		ID: "protection/B1", Type: eeb.ALMValuation, Portfolio: p,
		Fund: fund.TypicalItalianFund(4, market), Market: market,
		Outer: 60, Inner: 5,
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

// lifeDeltas holds the best-estimate BEL of a block and, for each
// standard-formula life shock, the stressed BEL minus it.
type lifeDeltas struct {
	Base, Longevity, Mortality, LapseUp, LapseDown float64
}

// valueLifeShocks values the block under each life shock the way a campaign
// does: the shock's eeb.Biometric basis stamped on a copy of the block, all
// on the seed's scenarios (common random numbers), so every delta is a pure
// assumption effect.
func valueLifeShocks(t *testing.T, b *eeb.Block, seed uint64) lifeDeltas {
	t.Helper()
	bel := func(basis eeb.Biometric) float64 {
		stamped := *b
		stamped.Biometric = basis
		v, err := NewValuer(&stamped, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := v.ValueNested()
		if err != nil {
			t.Fatal(err)
		}
		return r.BEL
	}
	base := bel(eeb.Biometric{})
	return lifeDeltas{
		Base:      base,
		Longevity: bel(eeb.Biometric{MortalityFactor: stress.LongevityShockFactor}) - base,
		Mortality: bel(eeb.Biometric{MortalityFactor: stress.MortalityShockFactor}) - base,
		LapseUp:   bel(eeb.Biometric{LapseFactor: stress.LapseShockFactor}) - base,
		LapseDown: bel(eeb.Biometric{LapseFactor: 2 - stress.LapseShockFactor}) - base,
	}
}

// checkOnerousLapse: the two lapse directions move the liability opposite
// ways, so the onerous direction is the max of the two — the one that
// raises the liability — and the other floors to a zero charge.
func checkOnerousLapse(t *testing.T, d lifeDeltas) {
	t.Helper()
	if d.LapseUp*d.LapseDown > 0 {
		t.Fatalf("lapse up %v and down %v move the liability the same way", d.LapseUp, d.LapseDown)
	}
}

func TestLongevityStressBitesAnnuities(t *testing.T) {
	d := valueLifeShocks(t, annuityBlock(t), 11)
	if d.Base <= 0 {
		t.Fatalf("base BEL = %v", d.Base)
	}
	if d.Longevity <= 0 {
		t.Fatalf("longevity stress did not raise annuity liability: %v", d.Longevity)
	}
	// On annuities, longevity dominates mortality.
	if d.Mortality >= d.Longevity {
		t.Fatalf("mortality delta %v >= longevity delta %v on an annuity book", d.Mortality, d.Longevity)
	}
	checkOnerousLapse(t, d)
}

func TestMortalityStressBitesProtection(t *testing.T) {
	d := valueLifeShocks(t, protectionBlock(t), 13)
	if d.Mortality <= 0 {
		t.Fatalf("mortality stress did not raise term-insurance liability: %v", d.Mortality)
	}
	if d.Longevity >= d.Mortality {
		t.Fatalf("longevity delta %v >= mortality delta %v on a protection book", d.Longevity, d.Mortality)
	}
	checkOnerousLapse(t, d)
}

func TestStressesDeterministic(t *testing.T) {
	b := annuityBlock(t)
	if d1, d2 := valueLifeShocks(t, b, 3), valueLifeShocks(t, b, 3); d1 != d2 {
		t.Fatalf("stressed valuations not reproducible: %+v vs %+v", d1, d2)
	}
}

// TestAssumptionsValidation checks that stressed assumptions, which reach the
// valuer as a block's Biometric basis, are refused where the block is unfit:
// a type-A block carrying a stress basis, and a basis with a negative factor.
func TestAssumptionsValidation(t *testing.T) {
	stressed := *annuityBlock(t)
	stressed.Biometric = eeb.Biometric{MortalityFactor: 1.15}
	if _, err := NewValuer(&stressed, 1); err != nil {
		t.Fatalf("valid stress basis refused: %v", err)
	}
	typeA := stressed
	typeA.Type = eeb.ActuarialValuation
	if _, err := NewValuer(&typeA, 1); err == nil {
		t.Fatal("type-A block with a stress basis accepted")
	}
	for _, bad := range []eeb.Biometric{{MortalityFactor: -0.1}, {LapseFactor: -1}} {
		b := stressed
		b.Biometric = bad
		if _, err := NewValuer(&b, 1); err == nil {
			t.Fatalf("negative biometric basis %+v accepted", bad)
		}
	}
}

// TestValuerUsesBlockScenarioSource checks that a block carrying a shared
// scenario set values identically to the default seeded generation, while
// drawing every path from the set.
func TestValuerUsesBlockScenarioSource(t *testing.T) {
	b := protectionBlock(t)
	const seed = 9
	plain, err := NewValuer(b, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.ValueNested()
	if err != nil {
		t.Fatal(err)
	}

	gen, err := stochastic.NewGenerator(b.Market)
	if err != nil {
		t.Fatal(err)
	}
	set := stochastic.NewSet(gen, seed)
	withSet := *b
	withSet.Scenarios = set
	v, err := NewValuer(&withSet, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ValueNested()
	if err != nil {
		t.Fatal(err)
	}
	if got.BEL != want.BEL || got.SCR != want.SCR {
		t.Fatalf("set-backed valuation (%v, %v) != seeded valuation (%v, %v)",
			got.BEL, got.SCR, want.BEL, want.SCR)
	}
	if set.Generated() == 0 {
		t.Fatal("valuation did not draw from the shared set")
	}
	// A second valuation over the same set regenerates nothing.
	n := set.Generated()
	if _, err := v.ValueNested(); err != nil {
		t.Fatal(err)
	}
	if set.Generated() != n {
		t.Fatalf("re-valuation regenerated scenarios: %d -> %d", n, set.Generated())
	}
}
