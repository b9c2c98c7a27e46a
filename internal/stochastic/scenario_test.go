package stochastic

import (
	"math"
	"sync"
	"testing"

	"disarcloud/internal/finmath"
)

func testConfig() Config {
	return Config{
		Horizon:      10,
		StepsPerYear: 2,
		Rate: VasicekParams{
			R0: 0.02, Speed: 0.3, MeanP: 0.03, MeanQ: 0.025, Sigma: 0.01,
		},
		Equities: []GBMParams{
			{S0: 100, Mu: 0.06, Sigma: 0.2},
			{S0: 50, Mu: 0.05, Sigma: 0.15},
		},
		Currencies: []GBMParams{{S0: 1.1, Mu: 0.01, Sigma: 0.08}},
		Credit:     CIRParams{L0: 0.01, Speed: 0.5, Mean: 0.02, Sigma: 0.05},
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(c *Config) {}, true},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }, false},
		{"zero steps", func(c *Config) { c.StepsPerYear = 0 }, false},
		{"bad rate speed", func(c *Config) { c.Rate.Speed = 0 }, false},
		{"bad equity S0", func(c *Config) { c.Equities[0].S0 = 0 }, false},
		{"bad fx sigma", func(c *Config) { c.Currencies[0].Sigma = -1 }, false},
		{"bad credit speed", func(c *Config) { c.Credit.Speed = -1 }, false},
		{"wrong corr size", func(c *Config) { c.Corr = finmath.Identity(2) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestNumFactors(t *testing.T) {
	cfg := testConfig()
	if got := cfg.NumFactors(); got != 5 { // rate + 2 equities + 1 fx + credit
		t.Fatalf("NumFactors = %d, want 5", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s1 := g.Generate(finmath.NewRNG(42), RealWorld)
	s2 := g.Generate(finmath.NewRNG(42), RealWorld)
	for k := range s1.Rates {
		if s1.Rates[k] != s2.Rates[k] {
			t.Fatal("same seed produced different rate paths")
		}
	}
}

func TestScenarioShapes(t *testing.T) {
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := g.Generate(finmath.NewRNG(1), RealWorld)
	wantLen := 10*2 + 1
	if len(s.Rates) != wantLen || len(s.Credit) != wantLen {
		t.Fatalf("path length = %d, want %d", len(s.Rates), wantLen)
	}
	if len(s.Equities) != 2 || len(s.Currencies) != 1 {
		t.Fatal("wrong number of driver paths")
	}
	if s.Steps() != 20 {
		t.Fatalf("Steps = %d, want 20", s.Steps())
	}
}

func TestEquityPositive(t *testing.T) {
	g, _ := NewGenerator(testConfig())
	rng := finmath.NewRNG(7)
	for i := 0; i < 50; i++ {
		s := g.Generate(rng, RealWorld)
		for _, path := range s.Equities {
			for _, v := range path {
				if v <= 0 {
					t.Fatal("GBM path went non-positive")
				}
			}
		}
	}
}

func TestDiscountDecreasing(t *testing.T) {
	g, _ := NewGenerator(testConfig())
	rng := finmath.NewRNG(3)
	for i := 0; i < 20; i++ {
		s := g.Generate(rng, RealWorld)
		prev := 1.0
		for y := 1.0; y <= 10; y++ {
			d := s.Discount(y)
			// Positive short rates on this parameterisation keep discount
			// factors below 1 and decreasing (rates can dip negative under
			// Vasicek, so allow a generous tolerance).
			if d > prev*1.05 {
				t.Fatalf("discount factor increased sharply: %v -> %v", prev, d)
			}
			prev = d
		}
	}
}

func TestDiscountIdentityAtZero(t *testing.T) {
	g, _ := NewGenerator(testConfig())
	s := g.Generate(finmath.NewRNG(5), RiskNeutral)
	if s.Discount(0) != 1 {
		t.Fatalf("Discount(0) = %v, want 1", s.Discount(0))
	}
	if got := s.DiscountBetween(3, 3); got != 1 {
		t.Fatalf("DiscountBetween(t,t) = %v, want 1", got)
	}
}

func TestDiscountsAtMatchesDiscount(t *testing.T) {
	g, _ := NewGenerator(testConfig())
	s := g.Generate(finmath.NewRNG(5), RiskNeutral)
	idx := make([]int, 8)
	for y := range idx {
		idx[y] = s.IndexOfYear(float64(y))
	}
	got := s.DiscountsAt(idx, make([]float64, 12))
	if len(got) != len(idx) {
		t.Fatalf("%d discount factors for %d indices", len(got), len(idx))
	}
	for y, d := range got {
		if d != s.Discount(float64(y)) {
			t.Fatalf("year %d: DiscountsAt %v != Discount %v", y, d, s.Discount(float64(y)))
		}
	}
}

func TestVasicekMeanReversion(t *testing.T) {
	// Long-horizon mean of the short rate should approach the long-run mean.
	cfg := testConfig()
	cfg.Horizon = 40
	g, _ := NewGenerator(cfg)
	rng := finmath.NewRNG(11)
	n := 2000
	sum := 0.0
	for i := 0; i < n; i++ {
		s := g.Generate(rng, RealWorld)
		sum += s.Rates[len(s.Rates)-1]
	}
	mean := sum / float64(n)
	if math.Abs(mean-cfg.Rate.MeanP) > 0.003 {
		t.Fatalf("terminal rate mean = %v, want ~%v", mean, cfg.Rate.MeanP)
	}
}

func TestRiskNeutralMartingale(t *testing.T) {
	// Under Q, the discounted equity index must be a martingale:
	// E[D(T) S(T)] = S(0). Use no dividends and a fine grid.
	cfg := testConfig()
	cfg.Horizon = 5
	cfg.StepsPerYear = 12
	g, _ := NewGenerator(cfg)
	rng := finmath.NewRNG(99)
	n := 30000
	sum := 0.0
	for i := 0; i < n; i++ {
		s := g.Generate(rng, RiskNeutral)
		sum += s.Discount(5) * s.Equities[0][len(s.Equities[0])-1]
	}
	got := sum / float64(n)
	if math.Abs(got-100)/100 > 0.02 {
		t.Fatalf("E[D(T)S(T)] = %v, want ~100 (martingale property)", got)
	}
}

func TestGenerateFromConditioning(t *testing.T) {
	g, _ := NewGenerator(testConfig())
	outer := g.Generate(finmath.NewRNG(21), RealWorld)
	inner := g.GenerateFrom(finmath.NewRNG(22), RiskNeutral, outer, 1)
	if inner.Rates[0] != outer.RateAtYear(1) {
		t.Fatalf("inner path not conditioned on outer state: %v != %v",
			inner.Rates[0], outer.RateAtYear(1))
	}
	if inner.Equities[0][0] != outer.Equities[0][outer.index(1)] {
		t.Fatal("inner equity start != outer equity at t=1")
	}
}

func TestCorrelatedScenarioDrivers(t *testing.T) {
	cfg := testConfig()
	n := cfg.NumFactors()
	corr := finmath.Identity(n)
	corr.Set(0, 1, 0.8)
	corr.Set(1, 0, 0.8)
	cfg.Corr = corr
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := finmath.NewRNG(13)
	// Correlation between one-step rate increments and equity log-returns.
	var dr, de []float64
	for i := 0; i < 4000; i++ {
		s := g.Generate(rng, RealWorld)
		dr = append(dr, s.Rates[1]-s.Rates[0])
		de = append(de, math.Log(s.Equities[0][1]/s.Equities[0][0]))
	}
	got := finmath.Correlation(dr, de)
	if got < 0.7 {
		t.Fatalf("rate/equity shock correlation = %v, want ~0.8", got)
	}
}

func TestCIRStaysNonNegativeDrift(t *testing.T) {
	cfg := testConfig()
	cfg.Credit = CIRParams{L0: 0.001, Speed: 2, Mean: 0.02, Sigma: 0.2}
	g, _ := NewGenerator(cfg)
	rng := finmath.NewRNG(17)
	for i := 0; i < 100; i++ {
		s := g.Generate(rng, RealWorld)
		for _, l := range s.Credit {
			// Full truncation allows small negative excursions of the state
			// but the diffusion term must never produce NaN.
			if math.IsNaN(l) {
				t.Fatal("CIR path produced NaN")
			}
		}
	}
}

func TestZeroCouponPriceProperties(t *testing.T) {
	p := testConfig().Rate
	if got := ZeroCouponPrice(p, 0.02, 0); got != 1 {
		t.Fatalf("P(t,t) = %v, want 1", got)
	}
	// Longer maturities are cheaper at positive rates.
	p5 := ZeroCouponPrice(p, 0.02, 5)
	p10 := ZeroCouponPrice(p, 0.02, 10)
	if !(p10 < p5 && p5 < 1) {
		t.Fatalf("bond prices not decreasing in maturity: P5=%v P10=%v", p5, p10)
	}
	// Implied yield near the short rate for short maturities.
	y := ImpliedYield(p, 0.02, 0.25)
	if math.Abs(y-0.02) > 0.005 {
		t.Fatalf("short-maturity implied yield = %v, want ~0.02", y)
	}
}

// TestSetConcurrentShardedAccess hammers the sharded cache the way an
// elastic pool at 8+ workers does — concurrent Outer/Inner/Derive over
// overlapping index ranges — and checks the memoization contract survives
// sharding: every distinct path is generated exactly once (Generated()
// stays exact) and every served path is bit-identical to the unsharded
// seed behaviour, i.e. to a plain PathSource on the same seed.
func TestSetConcurrentShardedAccess(t *testing.T) {
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		seed    = 4242
		nOuter  = 24
		nInner  = 6
		workers = 8
		reps    = 3
	)
	set := NewSet(g, seed)
	tr := Transform{RateShift: 0.01, EquityFactor: 0.61}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := set.Derive(tr)
			for rep := 0; rep < reps; rep++ {
				for i := 0; i < nOuter; i++ {
					o := set.Outer(i)
					_ = d.Outer(i)
					for j := 0; j < nInner; j++ {
						_ = set.Inner(i, j, o, 1)
						_ = d.Inner(i, j, o, 1)
					}
				}
			}
		}()
	}
	wg.Wait()

	if got, want := set.Generated(), int64(nOuter+nOuter*nInner); got != want {
		t.Fatalf("Generated() = %d after concurrent access, want exactly %d", got, want)
	}
	plain := NewPathSource(g, seed)
	for i := 0; i < nOuter; i++ {
		a, b := set.Outer(i), plain.Outer(i)
		for k := range b.Rates {
			if a.Rates[k] != b.Rates[k] {
				t.Fatalf("sharded outer %d drifted from the unsharded stream at %d", i, k)
			}
		}
		for j := 0; j < nInner; j++ {
			ia, ib := set.Inner(i, j, a, 1), plain.Inner(i, j, b, 1)
			for k := range ib.Rates {
				if ia.Rates[k] != ib.Rates[k] {
					t.Fatalf("sharded inner (%d,%d) drifted from the unsharded stream at %d", i, j, k)
				}
			}
		}
	}
	if set.Generated() != nOuter+nOuter*nInner {
		t.Fatal("verification re-reads generated new scenarios (cache miss)")
	}
}

// TestSetShardSpread sanity-checks the shard hash: a contiguous index walk
// must not pile onto one shard (which would silently restore the old
// single-mutex contention).
func TestSetShardSpread(t *testing.T) {
	outerHits := make(map[uint64]int)
	for i := 0; i < 256; i++ {
		outerHits[shardOf(i)]++
	}
	if len(outerHits) < setShards/2 {
		t.Fatalf("outer indices hash onto only %d of %d shards", len(outerHits), setShards)
	}
	for sh := range outerHits {
		if sh >= setShards {
			t.Fatalf("outer shard index %d out of range", sh)
		}
	}
}

func TestMeasureString(t *testing.T) {
	if RealWorld.String() != "P" || RiskNeutral.String() != "Q" {
		t.Fatal("Measure.String mismatch")
	}
	if Measure(9).String() != "Measure(9)" {
		t.Fatal("unknown measure formatting")
	}
}
