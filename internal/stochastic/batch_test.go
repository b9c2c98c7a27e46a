package stochastic

import (
	"math"
	"testing"

	"disarcloud/internal/finmath"
)

// scenariosEqual compares two scenarios for bit identity across every
// driver path.
func scenariosEqual(t *testing.T, label string, got, want *Scenario) {
	t.Helper()
	if got.Dt != want.Dt {
		t.Fatalf("%s: Dt %v != %v", label, got.Dt, want.Dt)
	}
	check := func(name string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s length %d != %d", label, name, len(g), len(w))
		}
		for k := range w {
			if g[k] != w[k] {
				t.Fatalf("%s: %s[%d] = %v, want %v (bit drift)", label, name, k, g[k], w[k])
			}
		}
	}
	check("rates", got.Rates, want.Rates)
	check("credit", got.Credit, want.Credit)
	check("discount", got.discount, want.discount)
	for i := range want.Equities {
		check("equity", got.Equities[i], want.Equities[i])
	}
	for i := range want.Currencies {
		check("currency", got.Currencies[i], want.Currencies[i])
	}
}

func corrTestConfig(t *testing.T) Config {
	cfg := testConfig()
	n := cfg.NumFactors()
	corr := finmath.Identity(n)
	corr.Set(0, 1, 0.6)
	corr.Set(1, 0, 0.6)
	corr.Set(2, 4, -0.3)
	corr.Set(4, 2, -0.3)
	cfg.Corr = corr
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestBatchMatchesScalarGeneration checks the batching contract at the
// source level: panel fills serve exactly the per-index seeded paths the
// scalar Outer/Inner accessors produce, with and without a correlation
// structure — the batch is a pure re-layout, never a numeric change.
func TestBatchMatchesScalarGeneration(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"independent", testConfig()},
		{"correlated", corrTestConfig(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGenerator(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 1234
			src := NewPathSource(g, seed)
			b := src.NewBatch(nil, 5)
			if b == nil {
				t.Fatal("PathSource.NewBatch returned nil")
			}

			src.OuterBatch(3, 5, b)
			if b.Len() != 5 {
				t.Fatalf("batch Len = %d, want 5", b.Len())
			}
			for q := 0; q < 5; q++ {
				scenariosEqual(t, "outer", b.View(q), src.Outer(3+q))
			}

			outer := src.Outer(3)
			src.InnerBatch(3, 2, 5, outer, 1, b)
			for q := 0; q < 5; q++ {
				scenariosEqual(t, "inner", b.View(q), src.Inner(3, 2+q, outer, 1))
			}
		})
	}
}

// TestBatchPoolRecycles checks that a put batch comes back reusable for its
// shape and that refills produce correct paths after recycling.
func TestBatchPoolRecycles(t *testing.T) {
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewBatchPool()
	src := NewPathSource(g, 9)
	b := src.NewBatch(pool, 4)
	src.OuterBatch(0, 4, b)
	pool.Put(b)

	b2 := src.NewBatch(pool, 4)
	if b2 != b {
		t.Log("pool handed a fresh batch (sync.Pool may drop); still must fill correctly")
	}
	src.OuterBatch(10, 3, b2)
	if b2.Len() != 3 {
		t.Fatalf("recycled batch Len = %d, want 3", b2.Len())
	}
	for q := 0; q < 3; q++ {
		scenariosEqual(t, "recycled", b2.View(q), src.Outer(10+q))
	}

	// A nil pool must still work (fresh allocations, dropped puts).
	var nilPool *BatchPool
	b3 := src.NewBatch(nilPool, 2)
	src.OuterBatch(1, 2, b3)
	scenariosEqual(t, "nil-pool", b3.View(1), src.Outer(2))
	nilPool.Put(b3)
}

// TestTransformBatchMatchesScalar checks the in-place panel shock against
// the per-path Derived wrapper for every shock kind: identical bits on
// outer (unbranched) and inner (branched) semantics.
func TestTransformBatchMatchesScalar(t *testing.T) {
	transforms := []Transform{
		{},
		{RateShift: +0.01},
		{RateShift: -0.015},
		{EquityFactor: 0.61},
		{CurrencyFactor: 0.75},
		{CreditFactor: 1.75},
		{RateShift: +0.01, EquityFactor: 0.61, CurrencyFactor: 0.75, CreditFactor: 1.75},
	}
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := NewPathSource(g, 77)
	b := src.NewBatch(nil, 4)
	outer := src.Outer(0)
	for ti, tr := range transforms {
		src.OuterBatch(0, 4, b)
		tr.ApplyOuterBatch(b)
		for q := 0; q < 4; q++ {
			scenariosEqual(t, "outer transform", b.View(q), tr.ApplyOuter(src.Outer(q)))
		}

		src.InnerBatch(0, 0, 4, outer, 1, b)
		tr.ApplyInnerBatch(b)
		for q := 0; q < 4; q++ {
			scenariosEqual(t, "inner transform", b.View(q), tr.ApplyInner(src.Inner(0, q, outer, 1)))
		}
		_ = ti
	}
}

// TestDerivedSourceBatches checks the campaign fast path: a derived view
// over a memoizing Set batches by copy + in-place panel shock, serves bits
// identical to the scalar derived accessors, and generates nothing new when
// the set is already populated.
func TestDerivedSourceBatches(t *testing.T) {
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	set := NewSet(g, 5)
	for i := 0; i < 3; i++ {
		o := set.Outer(i)
		for j := 0; j < 4; j++ {
			set.Inner(i, j, o, 1)
		}
	}
	before := set.Generated()

	tr := Transform{RateShift: 0.01, EquityFactor: 0.61}
	d := set.Derive(tr)
	ib, ok := d.(InnerBatcher)
	if !ok {
		t.Fatal("derived source over a Set must batch")
	}
	b := ib.NewBatch(nil, 4)
	if b == nil {
		t.Fatal("derived NewBatch over a Set returned nil")
	}
	for i := 0; i < 3; i++ {
		shockedOuter := d.Outer(i)
		ib.InnerBatch(i, 0, 4, shockedOuter, 1, b)
		for q := 0; q < 4; q++ {
			scenariosEqual(t, "derived inner", b.View(q), d.Inner(i, q, shockedOuter, 1))
		}
	}
	if ob, ok := d.(OuterBatcher); ok {
		ob.OuterBatch(0, 3, b)
		for q := 0; q < 3; q++ {
			scenariosEqual(t, "derived outer", b.View(q), d.Outer(q))
		}
	} else {
		t.Fatal("derived source over a Set must batch outers")
	}
	if got := set.Generated(); got != before {
		t.Fatalf("batched derivation generated %d new scenarios", got-before)
	}

	// Derived over a plain PathSource batches through direct generation.
	d2 := Derived(NewPathSource(g, 5), tr)
	ib2 := d2.(InnerBatcher)
	b2 := ib2.NewBatch(nil, 4)
	outer := NewPathSource(g, 5).Outer(1)
	ib2.InnerBatch(1, 0, 4, d2.Outer(1), 1, b2)
	for q := 0; q < 4; q++ {
		scenariosEqual(t, "derived-over-path inner", b2.View(q), d2.Inner(1, q, outer, 1))
	}

	// A source of unknown shape cannot batch: NewBatch reports nil.
	opaque := Derived(opaqueSource{set}, tr)
	if got := opaque.(InnerBatcher).NewBatch(nil, 2); got != nil {
		t.Fatal("derived view over an opaque source must refuse to batch")
	}
}

// opaqueSource hides the concrete source type, simulating a caller-supplied
// Source implementation the batching machinery knows nothing about.
type opaqueSource struct{ base Source }

func (o opaqueSource) Outer(i int) *Scenario { return o.base.Outer(i) }
func (o opaqueSource) Inner(i, j int, outer *Scenario, year float64) *Scenario {
	return o.base.Inner(i, j, outer, year)
}

// TestGenerateMatchesLegacyStep pins the stepper caches against the
// uncached per-step model arithmetic: same draws, same bits.
func TestGenerateMatchesLegacyStep(t *testing.T) {
	cfg := testConfig()
	dt := 1.0 / float64(cfg.StepsPerYear)
	rng := finmath.NewRNG(31)
	vs := cfg.Rate.stepper(dt)
	es := cfg.Equities[0].stepper(dt)
	for n := 0; n < 1000; n++ {
		r := -0.02 + 0.08*rng.Float64()
		z := rng.NormFloat64()
		for _, m := range []Measure{RealWorld, RiskNeutral} {
			if got, want := vs.step(r, z, m), cfg.Rate.step(r, dt, z, m); got != want {
				t.Fatalf("vasicek stepper drifted: %v != %v", got, want)
			}
			s := 50 + 100*rng.Float64()
			if got, want := es.step(s, r, z, m), cfg.Equities[0].step(s, r, dt, z, m); got != want {
				t.Fatalf("gbm stepper drifted: %v != %v", got, want)
			}
		}
	}
}

// TestYieldCacheMatchesZeroCouponPricing holds the affine curve point to the
// priced reference — the yield implied by ZeroCouponPrice — over a sweep of
// rates and maturities. The two are algebraically identical, not the same
// arithmetic (the reference rounds through Exp and Log), so the comparison
// is within rounding; ImpliedYield IS the cache, so that one is bitwise and
// is what keeps fund.TestMarketReturnsIntoMatchesReference exact.
func TestYieldCacheMatchesZeroCouponPricing(t *testing.T) {
	const tol = 1e-15
	p := testConfig().Rate
	rng := finmath.NewRNG(17)
	for _, tau := range []float64{0.25, 2, 5, 8.5, 12, 30} {
		c := NewYieldCache(p, tau)
		rates := []float64{-0.03, 0.07}
		for n := 0; n < 200; n++ {
			rates = append(rates, -0.03+0.1*rng.Float64())
		}
		for _, r := range rates {
			want := -math.Log(ZeroCouponPrice(p, r, tau)) / tau
			got := c.Yield(r)
			if math.Abs(got-want) > tol {
				t.Fatalf("yield cache left the priced curve at tau=%v r=%v: %v vs %v (diff %g)",
					tau, r, got, want, got-want)
			}
			if implied := ImpliedYield(p, r, tau); implied != got {
				t.Fatalf("ImpliedYield is not the cache at tau=%v r=%v: %v != %v", tau, r, implied, got)
			}
		}
	}
	if got := NewYieldCache(p, 0).Yield(0.02); got != 0.02 {
		t.Fatalf("zero-maturity yield = %v, want the short rate", got)
	}
	if got := ImpliedYield(p, 0.02, -1); got != 0.02 {
		t.Fatalf("negative-maturity yield = %v, want the short rate", got)
	}
}

// TestYieldIsAffineAndFiniteFarFromTheCurve is the property the priced round
// trip could not offer: the yield is exactly intercept + slope*r at any
// short rate, so it stays finite where exp(logA - bTau*r) leaves the float64
// range and the priced form returns an infinity.
func TestYieldIsAffineAndFiniteFarFromTheCurve(t *testing.T) {
	p := testConfig().Rate
	for _, tau := range []float64{0.25, 5, 30} {
		c := NewYieldCache(p, tau)
		if !(c.slope > 0 && c.slope <= 1) {
			t.Fatalf("tau=%v: slope %v outside (0, 1]", tau, c.slope)
		}
		for _, r := range []float64{-10, -1, -0.5, 0, 0.5, 1, 10} {
			got := c.Yield(r)
			if math.IsInf(got, 0) || math.IsNaN(got) {
				t.Fatalf("tau=%v r=%v: yield %v not finite", tau, r, got)
			}
			if want := c.intercept + c.slope*r; got != want {
				t.Fatalf("tau=%v r=%v: yield %v, want intercept + slope*r = %v", tau, r, got, want)
			}
		}
	}
	// bTau(30) is about 3.3 here, so the price over- and underflows around
	// |r| = 215; the yield does neither.
	c := NewYieldCache(p, 30)
	for _, r := range []float64{-1e3, 1e3} {
		if priced := -math.Log(ZeroCouponPrice(p, r, 30)) / 30; !math.IsInf(priced, 0) {
			t.Fatalf("r=%v: priced reference %v, expected it to overflow", r, priced)
		}
		if got, want := c.Yield(r), c.intercept+c.slope*r; got != want || math.IsInf(got, 0) {
			t.Fatalf("r=%v: yield %v, want finite %v", r, got, want)
		}
	}
}
