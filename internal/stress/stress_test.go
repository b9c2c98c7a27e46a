package stress

import (
	"math"
	"strings"
	"testing"

	"disarcloud/internal/eeb"
	"disarcloud/internal/stochastic"
)

// TestStandardFormulaPanelShocks pins the campaign fast path on the real
// module calibrations: for every standard-formula market shock, deriving a
// batched panel from a shared scenario set and shocking it in place must be
// bit-identical to the per-path Derived access, and must generate no new
// scenarios.
func TestStandardFormulaPanelShocks(t *testing.T) {
	cfg := stochastic.Config{
		Horizon:      10,
		StepsPerYear: 1,
		Rate:         stochastic.VasicekParams{R0: 0.015, Speed: 0.25, MeanP: 0.03, MeanQ: 0.025, Sigma: 0.009},
		Equities:     []stochastic.GBMParams{{S0: 100, Mu: 0.06, Sigma: 0.18}},
		Currencies:   []stochastic.GBMParams{{S0: 1.1, Mu: 0.01, Sigma: 0.08}},
		Credit:       stochastic.CIRParams{L0: 0.008, Speed: 0.5, Mean: 0.012, Sigma: 0.03},
	}
	g, err := stochastic.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := stochastic.NewSet(g, 33)
	const nOuter, nInner = 4, 5
	for i := 0; i < nOuter; i++ {
		o := set.Outer(i)
		for j := 0; j < nInner; j++ {
			set.Inner(i, j, o, 1)
		}
	}
	before := set.Generated()

	for _, shock := range StandardFormula() {
		if shock.Market.IsZero() {
			continue // life modules carry no market transform
		}
		d := set.Derive(shock.Market)
		ib, ok := d.(stochastic.InnerBatcher)
		if !ok {
			t.Fatalf("module %s: derived view over the campaign set must batch", shock.Module)
		}
		b := ib.NewBatch(nil, nInner)
		for i := 0; i < nOuter; i++ {
			shockedOuter := d.Outer(i)
			ib.InnerBatch(i, 0, nInner, shockedOuter, 1, b)
			for q := 0; q < nInner; q++ {
				got, want := b.View(q), d.Inner(i, q, shockedOuter, 1)
				for k := range want.Rates {
					if got.Rates[k] != want.Rates[k] {
						t.Fatalf("module %s: panel rate[%d][%d] drifted from per-path derivation", shock.Module, q, k)
					}
					if got.Credit[k] != want.Credit[k] {
						t.Fatalf("module %s: panel credit drifted", shock.Module)
					}
					for e := range want.Equities {
						if got.Equities[e][k] != want.Equities[e][k] {
							t.Fatalf("module %s: panel equity drifted", shock.Module)
						}
					}
					for f := range want.Currencies {
						if got.Currencies[f][k] != want.Currencies[f][k] {
							t.Fatalf("module %s: panel currency drifted", shock.Module)
						}
					}
				}
			}
		}
	}
	if got := set.Generated(); got != before {
		t.Fatalf("panel shocks generated %d new scenarios; campaign reuse broken", got-before)
	}
}

func TestStandardFormulaModules(t *testing.T) {
	shocks := StandardFormula()
	if len(shocks) != 7 {
		t.Fatalf("standard formula has %d modules, want 7", len(shocks))
	}
	if err := ValidateShocks(shocks); err != nil {
		t.Fatal(err)
	}
	byModule := make(map[Module]Shock, len(shocks))
	for _, s := range shocks {
		byModule[s.Module] = s
	}
	if up := byModule[InterestUp].Market.RateShift; up <= 0 {
		t.Fatalf("interest-up shift %v not positive", up)
	}
	if down := byModule[InterestDown].Market.RateShift; down >= 0 {
		t.Fatalf("interest-down shift %v not negative", down)
	}
	if eq := byModule[Equity].Market.EquityFactor; eq >= 1 || eq <= 0 {
		t.Fatalf("equity factor %v not an adverse drop", eq)
	}
	if fx := byModule[Currency].Market.CurrencyFactor; fx >= 1 || fx <= 0 {
		t.Fatalf("currency factor %v not an adverse drop", fx)
	}
	if spr := byModule[Spread].Market.CreditFactor; spr <= 1 {
		t.Fatalf("spread factor %v not a widening", spr)
	}
	if m := byModule[Mortality].Biometric.MortalityScale(); m <= 1 {
		t.Fatalf("mortality factor %v not an increase", m)
	}
	if l := byModule[Lapse].Biometric.LapseScale(); l <= 1 {
		t.Fatalf("lapse factor %v not an increase", l)
	}
	if lg := LongevityShock().Biometric.MortalityScale(); lg >= 1 {
		t.Fatalf("longevity factor %v not a decrease", lg)
	}
}

func TestValidateShocksRejectsDuplicatesAndBadShocks(t *testing.T) {
	if err := ValidateShocks(nil); err == nil {
		t.Fatal("empty shock list accepted")
	}
	dup := []Shock{
		{Module: Equity, Market: stochastic.Transform{EquityFactor: 0.61}},
		{Module: Equity, Market: stochastic.Transform{EquityFactor: 0.7}},
	}
	if err := ValidateShocks(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate modules accepted: %v", err)
	}
	bad := []Shock{{Module: "custom", Market: stochastic.Transform{EquityFactor: -1}}}
	if err := ValidateShocks(bad); err == nil {
		t.Fatal("negative equity factor accepted")
	}
	anon := []Shock{{Market: stochastic.Transform{EquityFactor: 0.5}}}
	if err := ValidateShocks(anon); err == nil {
		t.Fatal("unnamed module accepted")
	}
	if err := (Shock{Module: "m", Biometric: eeb.Biometric{MortalityFactor: -1}}).Validate(); err == nil {
		t.Fatal("negative biometric factor accepted")
	}
	if err := ValidateShocks([]Shock{{Module: "m", Biometric: eeb.Biometric{LapseFactor: math.NaN()}}}); err == nil {
		t.Fatal("NaN lapse factor accepted")
	}
}

func TestAggregateSingleModule(t *testing.T) {
	// A lone module's SCR is just its charge, whatever the group.
	for _, m := range []Module{InterestUp, Equity, Spread, Currency, Mortality, Lapse, Longevity} {
		got := Aggregate(map[Module]float64{m: 100})
		if math.Abs(got.BSCR-100) > 1e-9 {
			t.Fatalf("single-module %s BSCR = %v, want 100", m, got.BSCR)
		}
	}
}

func TestAggregateInterestBinding(t *testing.T) {
	up := Aggregate(map[Module]float64{InterestUp: 100, InterestDown: 40, Equity: 100})
	if up.InterestDownBinding {
		t.Fatal("up shock should bind")
	}
	if math.Abs(up.Interest-100) > 1e-9 {
		t.Fatalf("interest charge %v, want 100", up.Interest)
	}
	// With the up shock binding the interest/equity correlation is 0:
	// sqrt(100^2 + 100^2).
	if want := 100 * math.Sqrt2; math.Abs(up.Market-want) > 1e-9 {
		t.Fatalf("market SCR %v, want %v", up.Market, want)
	}
	down := Aggregate(map[Module]float64{InterestUp: 40, InterestDown: 100, Equity: 100})
	if !down.InterestDownBinding {
		t.Fatal("down shock should bind")
	}
	// Down binding couples interest and equity at 0.5:
	// sqrt(100^2 + 100^2 + 2*0.5*100*100).
	if want := 100 * math.Sqrt(3); math.Abs(down.Market-want) > 1e-9 {
		t.Fatalf("market SCR %v, want %v", down.Market, want)
	}
	if down.Market <= up.Market {
		t.Fatal("down-binding coupling should exceed the up-binding one here")
	}
}

func TestAggregateDiversification(t *testing.T) {
	deltas := map[Module]float64{
		InterestUp: 80, Equity: 120, Spread: 50, Currency: 30,
		Mortality: 40, Lapse: 60,
	}
	got := Aggregate(deltas)
	sum := 0.0
	for _, d := range deltas {
		sum += d
	}
	if got.BSCR >= sum {
		t.Fatalf("BSCR %v shows no diversification against linear sum %v", got.BSCR, sum)
	}
	if got.BSCR <= got.Market || got.BSCR <= got.Life {
		t.Fatalf("BSCR %v below its own components (market %v, life %v)", got.BSCR, got.Market, got.Life)
	}
	if got.Other != 0 {
		t.Fatalf("standard modules leaked into Other: %v", got.Other)
	}
}

func TestAggregateFloorsAndOther(t *testing.T) {
	got := Aggregate(map[Module]float64{Equity: -50, Mortality: -10})
	if got.BSCR != 0 || got.Market != 0 || got.Life != 0 {
		t.Fatalf("negative deltas must floor to zero, got %+v", got)
	}
	bespoke := Aggregate(map[Module]float64{Equity: 30, "cat": 40})
	if math.Abs(bespoke.Other-40) > 1e-9 {
		t.Fatalf("Other %v, want 40", bespoke.Other)
	}
	if want := math.Sqrt(30*30 + 40*40); math.Abs(bespoke.BSCR-want) > 1e-9 {
		t.Fatalf("BSCR with bespoke module %v, want %v", bespoke.BSCR, want)
	}
}

func TestAggregateMortalityLongevityOffset(t *testing.T) {
	// Mortality and longevity are negatively correlated (-0.25): holding both
	// charges must yield less than their quadrature.
	both := Aggregate(map[Module]float64{Mortality: 100, Longevity: 100})
	if quad := 100 * math.Sqrt2; both.Life >= quad {
		t.Fatalf("life SCR %v not below quadrature %v despite -0.25 correlation", both.Life, quad)
	}
}
