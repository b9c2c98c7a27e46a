package fund

import (
	"math"
	"testing"

	"disarcloud/internal/benchgate"
	"disarcloud/internal/finmath"
	"disarcloud/internal/stochastic"
)

func testMarket() stochastic.Config {
	return stochastic.Config{
		Horizon:      30,
		StepsPerYear: 1,
		Rate: stochastic.VasicekParams{
			R0: 0.02, Speed: 0.3, MeanP: 0.03, MeanQ: 0.025, Sigma: 0.01,
		},
		Equities: []stochastic.GBMParams{
			{S0: 100, Mu: 0.06, Sigma: 0.18},
			{S0: 200, Mu: 0.05, Sigma: 0.15},
		},
		Credit: stochastic.CIRParams{L0: 0.01, Speed: 0.5, Mean: 0.015, Sigma: 0.04},
	}
}

func simpleConfig() Config {
	return Config{
		Name: "test",
		Assets: []Asset{
			{Kind: GovernmentBond, Weight: 0.5, Maturity: 5},
			{Kind: CorporateBond, Weight: 0.3, Maturity: 7, LossGivenDefault: 0.6},
			{Kind: Equity, Weight: 0.2, EquityIndex: 0},
		},
		TargetReturn:      0.02,
		SmoothingFraction: 0.5,
		MaxBuffer:         0.08,
	}
}

func TestConfigValidate(t *testing.T) {
	market := testMarket()
	if err := simpleConfig().Validate(market); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no assets", func(c *Config) { c.Assets = nil }},
		{"weights != 1", func(c *Config) { c.Assets[0].Weight = 0.9 }},
		{"negative weight", func(c *Config) { c.Assets[0].Weight = -0.5; c.Assets[1].Weight = 1.3 }},
		{"bond no maturity", func(c *Config) { c.Assets[0].Maturity = 0 }},
		{"bad equity index", func(c *Config) { c.Assets[2].EquityIndex = 5 }},
		{"bad LGD", func(c *Config) { c.Assets[1].LossGivenDefault = 1.5 }},
		{"bad smoothing", func(c *Config) { c.SmoothingFraction = 1.5 }},
		{"negative buffer", func(c *Config) { c.MaxBuffer = -0.1 }},
		{"unknown kind", func(c *Config) { c.Assets[0].Kind = 0 }},
		{"NaN weight", func(c *Config) { c.Assets[0].Weight = math.NaN() }},
		{"+Inf weight", func(c *Config) { c.Assets[0].Weight = math.Inf(1) }},
		{"NaN maturity", func(c *Config) { c.Assets[0].Maturity = math.NaN() }},
		{"+Inf maturity", func(c *Config) { c.Assets[0].Maturity = math.Inf(1) }},
		{"NaN LGD", func(c *Config) { c.Assets[1].LossGivenDefault = math.NaN() }},
		{"NaN target", func(c *Config) { c.TargetReturn = math.NaN() }},
		{"-Inf target", func(c *Config) { c.TargetReturn = math.Inf(-1) }},
		{"NaN smoothing", func(c *Config) { c.SmoothingFraction = math.NaN() }},
		{"NaN buffer", func(c *Config) { c.MaxBuffer = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simpleConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(market); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestReturnsLengthAndDeterminism(t *testing.T) {
	market := testMarket()
	f, err := New(simpleConfig(), market)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := stochastic.NewGenerator(market)
	s1 := g.Generate(finmath.NewRNG(42), stochastic.RealWorld)
	s2 := g.Generate(finmath.NewRNG(42), stochastic.RealWorld)
	r1 := f.Returns(s1, 20)
	r2 := f.Returns(s2, 20)
	if len(r1) != 20 {
		t.Fatalf("len = %d", len(r1))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("returns not deterministic")
		}
	}
}

func TestSmoothingReducesVolatility(t *testing.T) {
	market := testMarket()
	smooth := simpleConfig()
	raw := simpleConfig()
	raw.SmoothingFraction = 0
	fs, _ := New(smooth, market)
	fr, _ := New(raw, market)
	g, _ := stochastic.NewGenerator(market)
	rng := finmath.NewRNG(31)
	var volSmooth, volRaw float64
	n := 200
	for i := 0; i < n; i++ {
		s := g.Generate(rng, stochastic.RealWorld)
		volSmooth += finmath.StdDev(fs.Returns(s, 25))
		volRaw += finmath.StdDev(fr.Returns(s, 25))
	}
	if volSmooth >= volRaw {
		t.Fatalf("smoothing did not reduce volatility: %v >= %v", volSmooth/float64(n), volRaw/float64(n))
	}
}

func TestSmoothingPreservesLongRunMean(t *testing.T) {
	// The buffer defers gains but does not create or destroy them beyond the
	// cap, so long-run mean book return should be close to mean market
	// return.
	market := testMarket()
	f, _ := New(simpleConfig(), market)
	g, _ := stochastic.NewGenerator(market)
	rng := finmath.NewRNG(17)
	var meanBook, meanMkt float64
	n := 300
	for i := 0; i < n; i++ {
		s := g.Generate(rng, stochastic.RealWorld)
		meanBook += finmath.Mean(f.Returns(s, 30))
		meanMkt += finmath.Mean(f.MarketReturns(s, 30))
	}
	meanBook /= float64(n)
	meanMkt /= float64(n)
	if math.Abs(meanBook-meanMkt) > 0.005 {
		t.Fatalf("book mean %v drifted from market mean %v", meanBook, meanMkt)
	}
}

func TestNoSmoothingIdentity(t *testing.T) {
	market := testMarket()
	cfg := simpleConfig()
	cfg.SmoothingFraction = 0
	f, _ := New(cfg, market)
	g, _ := stochastic.NewGenerator(market)
	s := g.Generate(finmath.NewRNG(3), stochastic.RealWorld)
	book := f.Returns(s, 15)
	mkt := f.MarketReturns(s, 15)
	for i := range book {
		if book[i] != mkt[i] {
			t.Fatal("zero smoothing should leave returns untouched")
		}
	}
}

func TestBufferCapRespected(t *testing.T) {
	// With a zero cap, smoothing can never stash anything, so book == market.
	market := testMarket()
	cfg := simpleConfig()
	cfg.MaxBuffer = 0
	f, _ := New(cfg, market)
	g, _ := stochastic.NewGenerator(market)
	s := g.Generate(finmath.NewRNG(13), stochastic.RealWorld)
	book := f.Returns(s, 20)
	mkt := f.MarketReturns(s, 20)
	for i := range book {
		if math.Abs(book[i]-mkt[i]) > 1e-12 {
			t.Fatal("zero-cap buffer still altered returns")
		}
	}
}

func TestTypicalItalianFundValid(t *testing.T) {
	market := testMarket()
	for _, n := range []int{3, 5, 8, 12, 20} {
		cfg := TypicalItalianFund(n, market)
		if err := cfg.Validate(market); err != nil {
			t.Fatalf("TypicalItalianFund(%d): %v", n, err)
		}
		if cfg.NumAssets() != n {
			t.Fatalf("TypicalItalianFund(%d) has %d assets", n, cfg.NumAssets())
		}
	}
	// Degenerate request clamps to 3.
	if got := TypicalItalianFund(1, market).NumAssets(); got != 3 {
		t.Fatalf("clamp failed: %d assets", got)
	}
	// A market with no equity index (this used to divide by zero from 4
	// sleeves up): no equity sleeves, the bonds carry the whole weight.
	bondsOnly := market
	bondsOnly.Equities = nil
	for _, n := range []int{3, 4, 8, 20} {
		cfg := TypicalItalianFund(n, bondsOnly)
		if err := cfg.Validate(bondsOnly); err != nil {
			t.Fatalf("TypicalItalianFund(%d) on an equity-free market: %v", n, err)
		}
		if cfg.NumAssets() != n {
			t.Fatalf("TypicalItalianFund(%d) on an equity-free market has %d assets", n, cfg.NumAssets())
		}
		for _, a := range cfg.Assets {
			if a.Kind == Equity {
				t.Fatalf("TypicalItalianFund(%d) has an equity sleeve with no index to track", n)
			}
		}
	}
}

func TestAssetKindString(t *testing.T) {
	if GovernmentBond.String() != "govt-bond" || Equity.String() != "equity" ||
		CorporateBond.String() != "corp-bond" {
		t.Fatal("AssetKind.String mismatch")
	}
	if AssetKind(9).String() != "AssetKind(9)" {
		t.Fatal("unknown kind formatting")
	}
}

func TestBondReturnsTrackRates(t *testing.T) {
	// A pure government-bond fund in a near-deterministic rate world should
	// return roughly the implied yield.
	market := testMarket()
	market.Rate.Sigma = 1e-9
	market.Rate.R0 = 0.03
	market.Rate.MeanP = 0.03
	market.Rate.MeanQ = 0.03
	cfg := Config{
		Name:   "bonds",
		Assets: []Asset{{Kind: GovernmentBond, Weight: 1, Maturity: 5}},
	}
	f, err := New(cfg, market)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := stochastic.NewGenerator(market)
	s := g.Generate(finmath.NewRNG(7), stochastic.RealWorld)
	rets := f.Returns(s, 10)
	want := stochastic.ImpliedYield(market.Rate, 0.03, 5)
	for _, r := range rets {
		if math.Abs(r-want) > 1e-3 {
			t.Fatalf("bond return %v, want ~%v", r, want)
		}
	}
}

// TestNegativeIntensityIsClampedInTheBondLeg pins what full truncation
// does and does not promise (stochastic.CIRParams): on a volatile path the
// intensity state goes below zero, and the corporate sleeve reads it through
// max(lambda, 0) — in those years it earns exactly the government sleeve's
// return, in the others strictly more, and never NaN.
func TestNegativeIntensityIsClampedInTheBondLeg(t *testing.T) {
	market := testMarket()
	market.Credit = stochastic.CIRParams{L0: 0.02, Speed: 0.5, Mean: 0.02, Sigma: 1}
	sleeve := func(kind AssetKind) *Fund {
		f, err := New(Config{Name: "bond", Assets: []Asset{{Kind: kind, Weight: 1, Maturity: 7, LossGivenDefault: 0.6}}}, market)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	corporate, government := sleeve(CorporateBond), sleeve(GovernmentBond)
	g, err := stochastic.NewGenerator(market)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Generate(finmath.NewRNG(23), stochastic.RealWorld)
	corp, gov := corporate.MarketReturns(s, market.Horizon), government.MarketReturns(s, market.Horizon)
	negative := 0
	for y := range corp {
		lambda := s.Credit[s.IndexOfYear(float64(y+1))]
		switch {
		case math.IsNaN(lambda) || math.IsNaN(corp[y]) || math.IsInf(corp[y], 0):
			t.Fatalf("year %d: intensity %v, corporate return %v", y+1, lambda, corp[y])
		case lambda < 0:
			negative++
			if corp[y] != gov[y] {
				t.Errorf("year %d: intensity %v < 0 but the corporate sleeve returns %v, government %v", y+1, lambda, corp[y], gov[y])
			}
		case lambda > 0 && !(corp[y] > gov[y]):
			t.Errorf("year %d: intensity %v > 0 but the corporate sleeve returns %v, government %v", y+1, lambda, corp[y], gov[y])
		}
	}
	if negative == 0 {
		t.Fatal("the path never took the intensity below zero: the test does not exercise the clamp")
	}
}

// fxMarket extends the test market with one currency index.
func fxMarket() stochastic.Config {
	m := testMarket()
	m.Currencies = []stochastic.GBMParams{{S0: 1.1, Mu: 0.01, Sigma: 0.08}}
	return m
}

func TestForeignSleeveValidation(t *testing.T) {
	m := fxMarket()
	cfg := simpleConfig()
	cfg.Assets[2].Currency = 1
	if err := cfg.Validate(m); err != nil {
		t.Fatalf("valid foreign sleeve rejected: %v", err)
	}
	cfg.Assets[2].Currency = 2
	if err := cfg.Validate(m); err == nil {
		t.Fatal("sleeve referencing a missing currency accepted")
	}
	cfg.Assets[2].Currency = -1
	if err := cfg.Validate(m); err == nil {
		t.Fatal("negative currency index accepted")
	}
	// Without currencies in the market, any foreign sleeve is invalid.
	cfg.Assets[2].Currency = 1
	if err := cfg.Validate(testMarket()); err == nil {
		t.Fatal("foreign sleeve accepted against a currency-free market")
	}
}

// TestForeignSleeveCompoundsFX checks the domestic return of a foreign
// sleeve: (1+local)*(1+fx) - 1, so an FX move passes straight into the
// fund's market return.
func TestForeignSleeveCompoundsFX(t *testing.T) {
	m := fxMarket()
	domestic := Config{
		Name:   "dom",
		Assets: []Asset{{Kind: Equity, Weight: 1, EquityIndex: 0}},
	}
	foreign := domestic
	foreign.Name = "for"
	foreign.Assets = []Asset{{Kind: Equity, Weight: 1, EquityIndex: 0, Currency: 1}}

	fd, err := New(domestic, m)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := New(foreign, m)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := stochastic.NewGenerator(m)
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Generate(finmath.NewRNG(5), stochastic.RealWorld)
	rd := fd.MarketReturns(s, 10)
	rf := ff.MarketReturns(s, 10)
	for tt := 1; tt <= 10; tt++ {
		fx0 := s.Currencies[0][s.IndexOfYear(float64(tt-1))]
		fx1 := s.Currencies[0][s.IndexOfYear(float64(tt))]
		want := (1+rd[tt-1])*(fx1/fx0) - 1
		if math.Abs(rf[tt-1]-want) > 1e-12 {
			t.Fatalf("year %d: foreign return %v, want %v", tt, rf[tt-1], want)
		}
	}
}

// assetReturn is the market return of one sleeve over year [t-1, t], in
// domestic terms — the per-sleeve form Fund's compiled bond leg folds. It is
// the algebraic reference of the walk: it prices the sleeve's own curve point
// at both ends of every year and looks every grid index up by rounding.
func assetReturn(rate stochastic.VasicekParams, a Asset, s *stochastic.Scenario, t int) float64 {
	i0, i1 := s.IndexOfYear(float64(t-1)), s.IndexOfYear(float64(t))
	var local float64
	switch a.Kind {
	case Equity:
		local = s.Equities[a.EquityIndex][i1]/s.Equities[a.EquityIndex][i0] - 1
	case GovernmentBond, CorporateBond:
		// Rolling bond sleeve: carry at last year's yield plus the price
		// effect of the yield change over a duration of ~0.85*maturity.
		y0 := stochastic.ImpliedYield(rate, s.Rates[i0], a.Maturity)
		y1 := stochastic.ImpliedYield(rate, s.Rates[i1], a.Maturity)
		local = y0 - 0.85*a.Maturity*(y1-y0)
		if a.Kind == CorporateBond {
			// Credit carry spread minus expected default loss at the
			// prevailing intensity.
			lambda := max(s.Credit[i1], 0)
			local += 1.5*lambda - a.LossGivenDefault*lambda
		}
	}
	if a.Currency == 0 {
		return local
	}
	fx := s.Currencies[a.Currency-1]
	return (1+local)*(fx[i1]/fx[i0]) - 1
}

// TestMarketReturnsIntoMatchesReference holds the compiled walk (one affine
// leg per bond currency, carried levels, the year table) to the per-(year,
// sleeve) reference. The two are the same real number associated
// differently, so the comparison is algebraic — 1e-15 absolute on returns of
// order 1e-2, a handful of ulp — while everything the walk promises about
// itself stays bitwise: buffered == allocating, and a longer walk extends a
// shorter one.
func TestMarketReturnsIntoMatchesReference(t *testing.T) {
	m := testMarket()
	m.Currencies = []stochastic.GBMParams{{S0: 1.1, Mu: 0.01, Sigma: 0.08}, {S0: 0.9, Mu: 0, Sigma: 0.11}}
	funds := []Config{
		TypicalItalianFund(6, m),
		{
			Name: "foreign",
			Assets: []Asset{
				{Kind: GovernmentBond, Weight: 0.30, Maturity: 5},
				{Kind: CorporateBond, Weight: 0.20, Maturity: 7, LossGivenDefault: 0.6},
				{Kind: CorporateBond, Weight: 0.15, Maturity: 3, LossGivenDefault: 0.4, Currency: 1},
				{Kind: GovernmentBond, Weight: 0.10, Maturity: 9, Currency: 2},
				{Kind: GovernmentBond, Weight: 0.05, Maturity: 2, Currency: 1},
				{Kind: Equity, Weight: 0.10, EquityIndex: 0},
				{Kind: Equity, Weight: 0.10, EquityIndex: 1, Currency: 1},
			},
			TargetReturn: 0.02, SmoothingFraction: 0.5, MaxBuffer: 0.08,
		},
		{
			Name: "no-corporate",
			Assets: []Asset{
				{Kind: GovernmentBond, Weight: 0.6, Maturity: 4},
				{Kind: GovernmentBond, Weight: 0.3, Maturity: 10},
				{Kind: Equity, Weight: 0.1, EquityIndex: 1},
			},
			TargetReturn: 0.02, SmoothingFraction: 0.5, MaxBuffer: 0.08,
		},
	}
	gen, err := stochastic.NewGenerator(m)
	if err != nil {
		t.Fatal(err)
	}
	const years = 25
	for _, cfg := range funds {
		t.Run(cfg.Name, func(t *testing.T) {
			f, err := New(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			rng := finmath.NewRNG(11)
			worst := 0.0
			for rep := 0; rep < 20; rep++ {
				s := gen.Generate(rng, stochastic.RealWorld)
				got := f.MarketReturnsInto(s, years, make([]float64, years), make([]int, years+1))
				for yr := 1; yr <= years; yr++ {
					want := 0.0
					for _, a := range cfg.Assets {
						want += a.Weight * assetReturn(m.Rate, a, s, yr)
					}
					worst = max(worst, math.Abs(got[yr-1]-want))
					if !(math.Abs(got[yr-1]-want) <= 1e-15) {
						t.Fatalf("rep %d year %d: compiled return %v, per-sleeve reference %v", rep, yr, got[yr-1], want)
					}
				}
				// The buffered credited-return walk must match the allocating one.
				book := f.Returns(s, years)
				into := f.ReturnsInto(s, years, make([]float64, years), make([]float64, years), make([]int, years+1))
				for k := range book {
					if book[k] != into[k] {
						t.Fatalf("credited return %d drifted between Returns and ReturnsInto", k)
					}
				}
				// A longer walk extends a shorter one without changing it (the job
				// walk prices the widest block's horizon once for every block), and
				// leaves the years' grid indices behind for the discount lookup.
				for _, short := range []int{0, 1, 12} {
					idx := make([]int, short+1)
					prefix := f.ReturnsInto(s, short, make([]float64, short), make([]float64, short), idx)
					for k := range prefix {
						if prefix[k] != book[k] {
							t.Fatalf("rep %d: year %d of a %d-year walk is %v, of the %d-year walk %v",
								rep, k+1, short, prefix[k], years, book[k])
						}
					}
					for yr, i := range idx {
						if i != s.IndexOfYear(float64(yr)) {
							t.Fatalf("idx[%d] = %d after the walk, want grid index %d", yr, i, s.IndexOfYear(float64(yr)))
						}
					}
				}
			}
			t.Logf("worst |compiled - per-sleeve| = %.3g", worst)
		})
	}
}

// TestYearTableFollowsTheScenario walks ONE set of buffers over scenarios on
// different grids, one after another: the market's own annual grid (the
// compiled table), a quarterly grid (not the fund's: indexed year by year),
// an annual scenario shorter than the years asked for (the table clamped to
// the scenario's last point), and years beyond the market's horizon. Every
// walk equals, bit for bit, the same walk into fresh buffers and by a fund
// compiled for that scenario's own grid, and idx is IndexOfYear's — the grid
// indices come from the scenario in hand, never from the one walked before.
func TestYearTableFollowsTheScenario(t *testing.T) {
	annual := testMarket()
	quarterly := testMarket()
	quarterly.StepsPerYear = 4
	short := testMarket()
	short.Horizon = 8
	gens := map[string]stochastic.Config{"annual": annual, "quarterly": quarterly, "short": short}
	cfg := TypicalItalianFund(6, annual)
	f, err := New(cfg, annual)
	if err != nil {
		t.Fatal(err)
	}
	const years = 34 // beyond every horizon above
	out, market, idx := make([]float64, years), make([]float64, years), make([]int, years+1)
	for rep, grid := range []string{"annual", "quarterly", "short", "annual", "short", "quarterly"} {
		gen, err := stochastic.NewGenerator(gens[grid])
		if err != nil {
			t.Fatal(err)
		}
		own, err := New(cfg, gens[grid])
		if err != nil {
			t.Fatal(err)
		}
		s := gen.Generate(finmath.NewRNG(uint64(40+rep)), stochastic.RiskNeutral)
		for _, n := range []int{years, 5} {
			got := f.ReturnsInto(s, n, out, market, idx)
			for yr, i := range idx[:n+1] {
				if i != s.IndexOfYear(float64(yr)) {
					t.Fatalf("%s grid, %d years: idx[%d] = %d, want %d", grid, n, yr, i, s.IndexOfYear(float64(yr)))
				}
			}
			fresh := f.Returns(s, n)
			native := own.Returns(s, n)
			for k := range fresh {
				if math.Float64bits(got[k]) != math.Float64bits(fresh[k]) || math.Float64bits(got[k]) != math.Float64bits(native[k]) {
					t.Fatalf("%s grid, %d years: year %d reused buffers %v, fresh %v, grid's own fund %v",
						grid, n, k+1, got[k], fresh[k], native[k])
				}
			}
		}
	}
}

// BenchmarkFundReturns measures one credited-return walk at the campaign
// workload's shape: the 6-sleeve fund (1 equity + 5 bond sleeves, which
// compile to one equity walk and one bond leg) over a 25-year inner path,
// into caller-owned buffers. BENCH_pr22.json pins it;
// TestFundReturnsBenchSmoke gates it.
func BenchmarkFundReturns(b *testing.B) {
	const years = 25
	m := testMarket()
	f, err := New(TypicalItalianFund(6, m), m)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := stochastic.NewGenerator(m)
	if err != nil {
		b.Fatal(err)
	}
	s := gen.Generate(finmath.NewRNG(3), stochastic.RiskNeutral)
	out, market, idx := make([]float64, years), make([]float64, years), make([]int, years+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = f.ReturnsInto(s, years, out, market, idx)
	}
}

var benchSink []float64

// TestFundReturnsBenchSmoke holds the fund walk to BENCH_pr22.json: 0
// allocs/op exactly; ns/op warns at >20% and fails at >2x. Walking the five
// bond sleeves one by one and rounding a division per year reads about 2.6x
// on this row, a Log and an Exp per curve point about 25x.
func TestFundReturnsBenchSmoke(t *testing.T) {
	benchgate.Run(t, "../../BENCH_pr22.json", []benchgate.Row{
		{Name: "BenchmarkFundReturns", Bench: BenchmarkFundReturns},
	})
}
