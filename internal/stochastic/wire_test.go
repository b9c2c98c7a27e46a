package stochastic

import (
	"encoding/json"
	"sync"
	"testing"

	"disarcloud/internal/finmath"
)

// TestWireRoundTripBitIdentical is the contract the cluster's scenario
// transport rests on: ship the driver paths, recompute the discount curve,
// and the restored scenario is indistinguishable — bit for bit — from the
// locally generated one.
func TestWireRoundTripBitIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.Corr = finmath.Identity(cfg.NumFactors())
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42, 20160628} {
		orig := gen.Generate(finmath.NewRNG(outerSeed(seed, 3)), RealWorld)

		// Through JSON, exactly as the cluster wire carries it.
		data, err := json.Marshal(orig.Wire())
		if err != nil {
			t.Fatal(err)
		}
		var w ScenarioWire
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatal(err)
		}
		got, err := w.Restore()
		if err != nil {
			t.Fatal(err)
		}

		if got.Dt != orig.Dt {
			t.Fatalf("dt %v != %v", got.Dt, orig.Dt)
		}
		eqSlices := func(name string, a, b []float64) {
			t.Helper()
			if len(a) != len(b) {
				t.Fatalf("%s length %d != %d", name, len(a), len(b))
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("%s[%d]: %v != %v", name, k, a[k], b[k])
				}
			}
		}
		eqSlices("rates", got.Rates, orig.Rates)
		eqSlices("credit", got.Credit, orig.Credit)
		// The discount curve was NOT on the wire; Restore must have
		// reproduced it exactly from the rate path.
		eqSlices("discount", got.discount, orig.discount)
		for i := range orig.Equities {
			eqSlices("equity", got.Equities[i], orig.Equities[i])
		}
		for i := range orig.Currencies {
			eqSlices("currency", got.Currencies[i], orig.Currencies[i])
		}
	}
}

func TestWireRestoreRejectsMalformed(t *testing.T) {
	gen, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	good := gen.Generate(finmath.NewRNG(7), RealWorld).Wire()

	cases := []struct {
		name   string
		mutate func(*ScenarioWire)
	}{
		{"zero dt", func(w *ScenarioWire) { w.Dt = 0 }},
		{"negative dt", func(w *ScenarioWire) { w.Dt = -0.5 }},
		{"one rate point", func(w *ScenarioWire) { w.Rates = w.Rates[:1] }},
		{"short credit", func(w *ScenarioWire) { w.Credit = w.Credit[:len(w.Credit)-1] }},
		{"ragged equity", func(w *ScenarioWire) { w.Equities[0] = w.Equities[0][:2] }},
		{"ragged currency", func(w *ScenarioWire) { w.Currencies[0] = w.Currencies[0][:3] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := good
			// Deep-enough copy for the mutations above.
			w.Rates = append([]float64(nil), good.Rates...)
			w.Credit = append([]float64(nil), good.Credit...)
			w.Equities = append([][]float64(nil), good.Equities...)
			w.Currencies = append([][]float64(nil), good.Currencies...)
			tc.mutate(&w)
			if _, err := w.Restore(); err == nil {
				t.Fatal("expected restore error")
			}
		})
	}
}

// TestRefBaseKeySharedAcrossModules mirrors a stress campaign: the refs of
// the base job and every shocked module differ only in Transform, so they
// must share one base key (one cached scenario set per node), while a ref
// rooted at a different seed or market must not.
func TestRefBaseKeySharedAcrossModules(t *testing.T) {
	base := Ref{Market: testConfig(), Seed: 20160628, Memoize: true}
	shocked := base
	shocked.Transform = Transform{RateShift: 0.01, EquityFactor: 0.61}
	if base.BaseKey() != shocked.BaseKey() {
		t.Fatal("transform must not change the base key")
	}

	otherSeed := base
	otherSeed.Seed = 1
	if base.BaseKey() == otherSeed.BaseKey() {
		t.Fatal("seed must change the base key")
	}
	otherMarket := base
	otherMarket.Market.Rate.R0 = 0.05
	if base.BaseKey() == otherMarket.BaseKey() {
		t.Fatal("market must change the base key")
	}
	unmemoized := base
	unmemoized.Memoize = false
	if base.BaseKey() == unmemoized.BaseKey() {
		t.Fatal("memoize switch must change the base key")
	}
}

func TestRefBaseKeyStableAcrossJSON(t *testing.T) {
	cfg := testConfig()
	cfg.Corr = finmath.Identity(cfg.NumFactors())
	ref := Ref{Market: cfg, Seed: 9, Transform: Transform{CreditFactor: 1.3}, Memoize: true}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	var back Ref
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.BaseKey() != ref.BaseKey() {
		t.Fatal("base key must survive the JSON round trip")
	}
	if back.Transform != ref.Transform {
		t.Fatalf("transform changed across the wire: %+v != %+v", back.Transform, ref.Transform)
	}
}

// TestRefResolveMatchesDirectSource proves a ref resolved on a "remote" node
// serves exactly the scenarios the originating campaign's live source would.
func TestRefResolveMatchesDirectSource(t *testing.T) {
	cfg := testConfig()
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(77)
	tr := Transform{RateShift: -0.005, CreditFactor: 1.2}
	direct := Derived(NewSet(gen, seed), tr)

	ref := Ref{Market: cfg, Seed: seed, Transform: tr, Memoize: true}
	base, err := ref.NewBaseSource()
	if err != nil {
		t.Fatal(err)
	}
	remote := ref.Resolve(base)

	for i := 0; i < 4; i++ {
		a, b := direct.Outer(i), remote.Outer(i)
		for k := range a.Rates {
			if a.Rates[k] != b.Rates[k] {
				t.Fatalf("outer %d rate %d: %v != %v", i, k, a.Rates[k], b.Rates[k])
			}
		}
		ia := direct.Inner(i, 0, a, 1)
		ib := remote.Inner(i, 0, b, 1)
		for k := range ia.Credit {
			if ia.Credit[k] != ib.Credit[k] {
				t.Fatalf("inner (%d,0) credit %d: %v != %v", i, k, ia.Credit[k], ib.Credit[k])
			}
		}
	}
}

func TestRefValidateRejectsBadMarketAndTransform(t *testing.T) {
	bad := Ref{Market: testConfig(), Seed: 1}
	bad.Market.Horizon = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid market must fail validation")
	}
	bad2 := Ref{Market: testConfig(), Seed: 1, Transform: Transform{EquityFactor: -1}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("invalid transform must fail validation")
	}
}

func TestSetLookupAndInstall(t *testing.T) {
	gen, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSet(gen, 5)

	if _, ok := s.Lookup(0); ok {
		t.Fatal("lookup on an empty set must miss")
	}
	want := s.Outer(0)
	got, ok := s.Lookup(0)
	if !ok || got != want {
		t.Fatal("lookup after generation must return the cached scenario")
	}

	// Install into a fresh slot: the installed scenario becomes canonical and
	// a later Outer serves it without generating.
	foreign := NewSet(gen, 5).Outer(1)
	before := s.Generated()
	if err := s.Install(1, foreign); err != nil {
		t.Fatal(err)
	}
	if s.Outer(1) != foreign {
		t.Fatal("outer after install must serve the installed scenario")
	}
	if s.Generated() != before {
		t.Fatal("serving an installed scenario must not count as generation")
	}

	// Install racing an existing entry: the first resolution wins.
	other := NewSet(gen, 5).Outer(0)
	if err := s.Install(0, other); err != nil || s.Outer(0) != want {
		t.Fatal("install over a generated entry must keep the canonical scenario")
	}

	// Paths off the generator's grid are refused: a batched walk copies a
	// memoized path into a fixed-width panel and would keep stale tail values.
	for name, mutate := range map[string]func(*ScenarioWire){
		"dt": func(w *ScenarioWire) { w.Dt /= 2 },
		"point count": func(w *ScenarioWire) {
			n := len(w.Rates) - 1
			w.Rates, w.Credit, w.Equities, w.Currencies = w.Rates[:n], w.Credit[:n], nil, nil
		},
		"equities":   func(w *ScenarioWire) { w.Equities = append(w.Equities, w.Equities[0]) },
		"currencies": func(w *ScenarioWire) { w.Currencies = append(w.Currencies, w.Rates) },
	} {
		w := NewSet(gen, 5).Outer(2).Wire()
		mutate(&w)
		odd, err := w.Restore()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Install(2, odd); err == nil {
			t.Errorf("%s: a path off the set's grid was installed", name)
		}
	}
	if _, ok := s.Lookup(2); ok {
		t.Fatal("a refused install left an entry behind")
	}
}

func TestSetInstallConcurrentWithGenerate(t *testing.T) {
	gen, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const paths = 64
	s := NewSet(gen, 11)
	donor := NewSet(gen, 11)

	var wg sync.WaitGroup
	canonical := make([]*Scenario, paths)
	installed := make([]error, paths)
	for i := 0; i < paths; i++ {
		fetched := donor.Outer(i)
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			canonical[i] = s.Outer(i)
		}(i)
		go func(i int, sc *Scenario) {
			defer wg.Done()
			installed[i] = s.Install(i, sc)
		}(i, fetched)
	}
	wg.Wait()
	for i := 0; i < paths; i++ {
		// Whoever won, the set must have converged on one pointer: the one
		// Outer returned is the one Lookup serves.
		if installed[i] != nil {
			t.Fatalf("path %d: %v", i, installed[i])
		}
		got, ok := s.Lookup(i)
		if !ok || got != canonical[i] {
			t.Fatalf("path %d: lookup does not serve the canonical scenario", i)
		}
	}
}
