package stochastic

import (
	"math"
	"strings"
	"testing"

	"disarcloud/internal/finmath"
)

// Property-style suite: each test sweeps several seeded model
// parameterisations and checks a law of the process family — martingale
// property under Q, stationary moments of the mean-reverting drivers, and
// the exactness of the shocked-scenario derivation rule — rather than one
// pinned value.

// propertyConfigs returns a family of valid configurations spanning the
// parameter ranges the engine is used with.
func propertyConfigs() []Config {
	base := testConfig()
	configs := []Config{base}
	rng := finmath.NewRNG(777)
	for i := 0; i < 4; i++ {
		cfg := base
		cfg.Rate = VasicekParams{
			R0:    0.005 + 0.03*rng.Float64(),
			Speed: 0.1 + 0.5*rng.Float64(),
			MeanP: 0.01 + 0.03*rng.Float64(),
			MeanQ: 0.01 + 0.03*rng.Float64(),
			Sigma: 0.002 + 0.01*rng.Float64(),
		}
		cfg.Equities = []GBMParams{{S0: 50 + 100*rng.Float64(), Mu: 0.08 * rng.Float64(), Sigma: 0.1 + 0.2*rng.Float64()}}
		cfg.Currencies = []GBMParams{{S0: 0.8 + 0.6*rng.Float64(), Mu: 0.02 * rng.Float64(), Sigma: 0.05 + 0.1*rng.Float64()}}
		cfg.Credit = CIRParams{
			L0:    0.02 * rng.Float64(),
			Speed: 0.3 + 1.2*rng.Float64(),
			Mean:  0.005 + 0.02*rng.Float64(),
			Sigma: 0.01 + 0.04*rng.Float64(),
		}
		configs = append(configs, cfg)
	}
	return configs
}

// TestPropertyDiscountedEquityMartingale checks E[D(T) S(T)] = S(0) under Q
// for every parameterisation, within three Monte Carlo standard errors.
func TestPropertyDiscountedEquityMartingale(t *testing.T) {
	for ci, cfg := range propertyConfigs() {
		cfg.Horizon = 5
		cfg.StepsPerYear = 12
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := finmath.NewRNG(uint64(1000 + ci))
		const n = 20000
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			s := g.Generate(rng, RiskNeutral)
			vals[i] = s.Discount(5) * s.Equities[0][len(s.Equities[0])-1]
		}
		mean := finmath.Mean(vals)
		se := finmath.StandardError(vals)
		s0 := cfg.Equities[0].S0
		if math.Abs(mean-s0) > 3*se+1e-9 {
			t.Errorf("config %d: E[D(T)S(T)] = %v, want %v +- %v (3 SE)", ci, mean, s0, 3*se)
		}
	}
}

// TestPropertyVasicekStationaryMoments checks the terminal short rate
// against the OU stationary law: mean b and variance sigma^2/(2a).
func TestPropertyVasicekStationaryMoments(t *testing.T) {
	for ci, cfg := range propertyConfigs() {
		// Run several mean-reversion half-lives past t=0 so the process is
		// effectively stationary.
		cfg.Horizon = int(math.Ceil(8/cfg.Rate.Speed)) + 5
		cfg.StepsPerYear = 1
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := finmath.NewRNG(uint64(2000 + ci))
		const n = 8000
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			s := g.Generate(rng, RealWorld)
			vals[i] = s.Rates[len(s.Rates)-1]
		}
		wantMean := cfg.Rate.MeanP
		wantVar := cfg.Rate.Sigma * cfg.Rate.Sigma / (2 * cfg.Rate.Speed)
		mean := finmath.Mean(vals)
		sd := finmath.StdDev(vals)
		gotVar := sd * sd
		if math.Abs(mean-wantMean) > 4*sd/math.Sqrt(n) {
			t.Errorf("config %d: stationary mean %v, want %v", ci, mean, wantMean)
		}
		// Sample variance of a Gaussian concentrates with relative error
		// ~sqrt(2/n); allow a generous multiple.
		if math.Abs(gotVar-wantVar)/wantVar > 8*math.Sqrt(2.0/n) {
			t.Errorf("config %d: stationary variance %v, want %v", ci, gotVar, wantVar)
		}
	}
}

// TestPropertyCIRStationaryMoments checks the terminal credit intensity
// against the CIR stationary law: mean b and variance sigma^2 b/(2a). The
// full-truncation Euler scheme carries a small discretisation bias, so the
// tolerances are looser than the Monte Carlo error alone.
func TestPropertyCIRStationaryMoments(t *testing.T) {
	for ci, cfg := range propertyConfigs() {
		cfg.Horizon = int(math.Ceil(8/cfg.Credit.Speed)) + 5
		cfg.StepsPerYear = 12 // fine grid keeps the Euler bias small
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := finmath.NewRNG(uint64(3000 + ci))
		const n = 8000
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			s := g.Generate(rng, RealWorld)
			vals[i] = s.Credit[len(s.Credit)-1]
		}
		p := cfg.Credit
		wantMean := p.Mean
		wantVar := p.Sigma * p.Sigma * p.Mean / (2 * p.Speed)
		mean := finmath.Mean(vals)
		sd := finmath.StdDev(vals)
		if math.Abs(mean-wantMean) > 4*sd/math.Sqrt(n)+0.02*wantMean {
			t.Errorf("config %d: CIR stationary mean %v, want %v", ci, mean, wantMean)
		}
		if gotVar := sd * sd; math.Abs(gotVar-wantVar)/wantVar > 0.15 {
			t.Errorf("config %d: CIR stationary variance %v, want %v", ci, gotVar, wantVar)
		}
	}
}

// TestPropertyShockCorrelationMatchesConfig checks the law of correlated
// generation: over one step from a fixed state every driver is an affine
// function of its own shock (the rate and the intensity in level, equities
// and the currency in log), so the sample correlation matrix of 1e5
// one-step moves estimates cfg.Corr itself. Each entry must sit within 4
// standard errors, (1 - rho^2)/sqrt(n) for a sample correlation. A shock
// wired to the wrong driver, a transposed Cholesky factor or a sampler whose
// draws are not independent fails it.
func TestPropertyShockCorrelationMatchesConfig(t *testing.T) {
	cfg := testConfig() // factors: rate, two equities, one currency, credit
	cfg.Horizon, cfg.StepsPerYear = 1, 4
	rho := [][]float64{
		{1, 0.3, 0.2, -0.1, -0.4},
		{0.3, 1, 0.6, 0.25, -0.3},
		{0.2, 0.6, 1, 0.1, -0.2},
		{-0.1, 0.25, 0.1, 1, 0.15},
		{-0.4, -0.3, -0.2, 0.15, 1},
	}
	cfg.Corr = finmath.NewMatrixFrom(rho)
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	names := []string{"rate", "equity 0", "equity 1", "currency", "credit"}
	moves := make([][]float64, len(names))
	for i := range moves {
		moves[i] = make([]float64, n)
	}
	rng := finmath.NewRNG(4000)
	for p := 0; p < n; p++ {
		s := g.Generate(rng, RealWorld)
		moves[0][p] = s.Rates[1]
		moves[1][p] = math.Log(s.Equities[0][1])
		moves[2][p] = math.Log(s.Equities[1][1])
		moves[3][p] = math.Log(s.Currencies[0][1])
		moves[4][p] = s.Credit[1]
	}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			got, want := finmath.Correlation(moves[i], moves[j]), rho[i][j]
			if se := (1 - want*want) / math.Sqrt(n); math.Abs(got-want) > 4*se {
				t.Errorf("corr(%s, %s) = %.4f, want %v within %.4f (4 SE)", names[i], names[j], got, want, 4*se)
			}
		}
	}
}

// almostEqual compares with a relative tolerance against floating-point
// accumulation over a few hundred grid steps.
func almostEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1e-6)
}

// propertyTransforms is the shock family of the consistency checks.
func propertyTransforms() []Transform {
	return []Transform{
		{RateShift: +0.01},
		{RateShift: -0.015},
		{CreditFactor: 1.75},
		{EquityFactor: 0.61},
		{CurrencyFactor: 0.75},
		{RateShift: +0.01, EquityFactor: 0.61, CurrencyFactor: 0.75, CreditFactor: 1.75},
	}
}

// TestPropertyTransformMatchesShockedConfig checks the parameter-level part
// of the derivation rule: for shocks expressible in Config (rate shift,
// credit rescale), generating from the shocked configuration with the same
// random draws reproduces ApplyOuter of the base scenario EXACTLY — rates,
// credit, discount and (under P, where levels carry no rate drift) the
// untouched index paths.
func TestPropertyTransformMatchesShockedConfig(t *testing.T) {
	for ci, cfg := range propertyConfigs() {
		for ti, tr := range propertyTransforms() {
			if factorOr1(tr.EquityFactor) != 1 || factorOr1(tr.CurrencyFactor) != 1 {
				continue // level jumps are pathwise by design, not config shocks
			}
			gBase, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gShocked, err := NewGenerator(tr.Config(cfg))
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(4000 + 10*ci + ti)
			base := gBase.Generate(finmath.NewRNG(seed), RealWorld)
			want := gShocked.Generate(finmath.NewRNG(seed), RealWorld)
			got := tr.ApplyOuter(base)
			for k := range want.Rates {
				if !almostEqual(got.Rates[k], want.Rates[k]) {
					t.Fatalf("config %d transform %d: rate[%d] = %v, want %v", ci, ti, k, got.Rates[k], want.Rates[k])
				}
				if !almostEqual(got.Credit[k], want.Credit[k]) {
					t.Fatalf("config %d transform %d: credit[%d] = %v, want %v", ci, ti, k, got.Credit[k], want.Credit[k])
				}
				if !almostEqual(got.discount[k], want.discount[k]) {
					t.Fatalf("config %d transform %d: discount[%d] = %v, want %v", ci, ti, k, got.discount[k], want.discount[k])
				}
				for e := range want.Equities {
					if !almostEqual(got.Equities[e][k], want.Equities[e][k]) {
						t.Fatalf("config %d transform %d: equity[%d][%d] = %v, want %v",
							ci, ti, e, k, got.Equities[e][k], want.Equities[e][k])
					}
				}
			}
		}
	}
}

// TestPropertyTransformCommutesWithConditioning checks the branched inner
// rule against the real generator for EVERY shock kind: generating an inner
// path from the base config conditioned on the SHOCKED outer state, with the
// shocked config's dynamics, must equal ApplyInner of the base inner path.
// For the jump shocks the conditioning state carries the whole shock, so
// this exercises exactly the reuse path of a campaign.
func TestPropertyTransformCommutesWithConditioning(t *testing.T) {
	for ci, cfg := range propertyConfigs() {
		gBase, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ti, tr := range propertyTransforms() {
			gShocked, err := NewGenerator(tr.Config(cfg))
			if err != nil {
				t.Fatal(err)
			}
			oSeed, iSeed := uint64(5000+10*ci+ti), uint64(6000+10*ci+ti)
			baseOuter := gBase.Generate(finmath.NewRNG(oSeed), RealWorld)
			baseInner := gBase.GenerateFrom(finmath.NewRNG(iSeed), RiskNeutral, baseOuter, 1)

			shockedOuter := tr.ApplyOuter(baseOuter)
			want := gShocked.GenerateFrom(finmath.NewRNG(iSeed), RiskNeutral, shockedOuter, 1)
			got := tr.ApplyInner(baseInner)
			for k := range want.Rates {
				if !almostEqual(got.Rates[k], want.Rates[k]) {
					t.Fatalf("config %d transform %d: inner rate[%d] = %v, want %v", ci, ti, k, got.Rates[k], want.Rates[k])
				}
				if !almostEqual(got.Credit[k], want.Credit[k]) {
					t.Fatalf("config %d transform %d: inner credit[%d] = %v, want %v", ci, ti, k, got.Credit[k], want.Credit[k])
				}
				if !almostEqual(got.discount[k], want.discount[k]) {
					t.Fatalf("config %d transform %d: inner discount[%d] = %v, want %v", ci, ti, k, got.discount[k], want.discount[k])
				}
				for e := range want.Equities {
					if !almostEqual(got.Equities[e][k], want.Equities[e][k]) {
						t.Fatalf("config %d transform %d: inner equity[%d][%d] = %v, want %v",
							ci, ti, e, k, got.Equities[e][k], want.Equities[e][k])
					}
				}
				for f := range want.Currencies {
					if !almostEqual(got.Currencies[f][k], want.Currencies[f][k]) {
						t.Fatalf("config %d transform %d: inner fx[%d][%d] = %v, want %v",
							ci, ti, f, k, got.Currencies[f][k], want.Currencies[f][k])
					}
				}
			}
		}
	}
}

// TestPropertyEquityJumpSemantics pins the instantaneous t=0+ shock: the
// time-0 point keeps the pre-shock reference, every later point scales by
// the factor, and the first-year return absorbs the whole jump.
func TestPropertyEquityJumpSemantics(t *testing.T) {
	cfg := testConfig()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := Transform{EquityFactor: 0.61, CurrencyFactor: 0.75}
	base := g.Generate(finmath.NewRNG(42), RealWorld)
	got := tr.ApplyOuter(base)
	if got.Equities[0][0] != base.Equities[0][0] {
		t.Fatalf("t=0 equity reference moved: %v != %v", got.Equities[0][0], base.Equities[0][0])
	}
	if got.Currencies[0][0] != base.Currencies[0][0] {
		t.Fatal("t=0 currency reference moved")
	}
	for k := 1; k < len(base.Equities[0]); k++ {
		if !almostEqual(got.Equities[0][k], 0.61*base.Equities[0][k]) {
			t.Fatalf("equity[%d] not scaled by 0.61", k)
		}
		if !almostEqual(got.Currencies[0][k], 0.75*base.Currencies[0][k]) {
			t.Fatalf("currency[%d] not scaled by 0.75", k)
		}
	}
}

// TestSetMatchesPathSource checks that the memoizing set serves exactly the
// paths a plain source generates, and counts each path's generation once.
func TestSetMatchesPathSource(t *testing.T) {
	cfg := testConfig()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 99
	set := NewSet(g, seed)
	plain := NewPathSource(g, seed)
	for i := 0; i < 5; i++ {
		a, b := set.Outer(i), plain.Outer(i)
		for k := range a.Rates {
			if a.Rates[k] != b.Rates[k] {
				t.Fatalf("outer %d differs from plain source at %d", i, k)
			}
		}
		for j := 0; j < 3; j++ {
			ia, ib := set.Inner(i, j, a, 1), plain.Inner(i, j, b, 1)
			for k := range ia.Rates {
				if ia.Rates[k] != ib.Rates[k] {
					t.Fatalf("inner (%d,%d) differs from plain source at %d", i, j, k)
				}
			}
		}
	}
	gen := set.Generated()
	if gen != 5+5*3 {
		t.Fatalf("set generated %d scenarios, want 20", gen)
	}
	// Re-reading everything must serve from cache.
	for i := 0; i < 5; i++ {
		o := set.Outer(i)
		for j := 0; j < 3; j++ {
			set.Inner(i, j, o, 1)
		}
	}
	if set.Generated() != gen {
		t.Fatalf("cache miss on re-read: %d -> %d generations", gen, set.Generated())
	}
}

// TestDerivedSetGeneratesNothingNew checks the campaign reuse contract: a
// derived source over a populated set serves shocked paths without any new
// scenario generation, and its paths equal the transform of the base paths.
func TestDerivedSetGeneratesNothingNew(t *testing.T) {
	cfg := testConfig()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := NewSet(g, 7)
	for i := 0; i < 4; i++ {
		o := set.Outer(i)
		for j := 0; j < 2; j++ {
			set.Inner(i, j, o, 1)
		}
	}
	before := set.Generated()
	tr := Transform{RateShift: 0.01, EquityFactor: 0.61}
	d := set.Derive(tr)
	for i := 0; i < 4; i++ {
		o := d.Outer(i)
		want := tr.ApplyOuter(set.Outer(i))
		for k := range o.Rates {
			if o.Rates[k] != want.Rates[k] {
				t.Fatalf("derived outer %d mismatch at %d", i, k)
			}
		}
		for j := 0; j < 2; j++ {
			in := d.Inner(i, j, o, 1)
			wantIn := tr.ApplyInner(set.Inner(i, j, set.Outer(i), 1))
			for k := range in.Rates {
				if in.Rates[k] != wantIn.Rates[k] {
					t.Fatalf("derived inner (%d,%d) mismatch at %d", i, j, k)
				}
			}
		}
	}
	if set.Generated() != before {
		t.Fatalf("deriving generated %d new scenarios", set.Generated()-before)
	}
	if src := set.Derive(Transform{}); src != Source(set) {
		t.Fatal("identity derivation should return the set itself")
	}
}

// TestValidateRejectsNonPSDCorrelation checks the Validate-time positive-
// definiteness guard: an inadmissible correlation matrix must fail fast in
// Config.Validate with a clear error, not later as a Cholesky error at
// generator construction.
func TestValidateRejectsNonPSDCorrelation(t *testing.T) {
	cfg := testConfig()
	n := cfg.NumFactors()

	// A "correlation matrix" with rho(0,1)=0.9, rho(1,2)=0.9, rho(0,2)=-0.9
	// is not positive semi-definite.
	bad := finmath.Identity(n)
	bad.Set(0, 1, 0.9)
	bad.Set(1, 0, 0.9)
	bad.Set(1, 2, 0.9)
	bad.Set(2, 1, 0.9)
	bad.Set(0, 2, -0.9)
	bad.Set(2, 0, -0.9)
	cfg.Corr = bad
	err := cfg.Validate()
	if err == nil {
		t.Fatal("non-PSD correlation matrix passed Validate")
	}
	if want := "not positive definite"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
	if _, err := NewGenerator(cfg); err == nil {
		t.Fatal("NewGenerator accepted a non-PSD correlation matrix")
	}

	asym := finmath.Identity(n)
	asym.Set(0, 1, 0.5)
	cfg.Corr = asym
	if err := cfg.Validate(); err == nil {
		t.Fatal("asymmetric correlation matrix passed Validate")
	}

	diag := finmath.Identity(n)
	diag.Set(1, 1, 1.5)
	cfg.Corr = diag
	if err := cfg.Validate(); err == nil {
		t.Fatal("non-unit diagonal passed Validate")
	}

	good := finmath.Identity(n)
	good.Set(0, 1, 0.5)
	good.Set(1, 0, 0.5)
	cfg.Corr = good
	if err := cfg.Validate(); err != nil {
		t.Fatalf("admissible correlation matrix rejected: %v", err)
	}
}
