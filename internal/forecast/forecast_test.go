package forecast

import (
	"math"
	"testing"
	"time"

	"disarcloud/internal/finmath"
)

// constant builds a flat series.
func constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// allModels is the full candidate family with a seasonal period of 8.
func allModels() []Forecaster {
	return []Forecaster{
		NewEWMA(0),
		NewHolt(0, 0),
		NewHoltWinters(0, 0, 0, 8),
		NewAutoregressive(4),
	}
}

// TestConstantSeriesConstantForecast: every model fitted on a constant
// series must forecast that constant at every horizon.
func TestConstantSeriesConstantForecast(t *testing.T) {
	series := constant(64, 7.5)
	for _, m := range allModels() {
		if err := m.Fit(series); err != nil {
			t.Fatalf("%s: fit on constant series: %v", m.Name(), err)
		}
		for h, f := range m.Forecast(12) {
			if math.Abs(f-7.5) > 1e-6 {
				t.Errorf("%s: forecast[%d] = %v, want 7.5", m.Name(), h, f)
			}
		}
	}
}

// TestHoltRecoversLinearTrend: on an exactly linear series the Holt
// recursion reproduces the line, so the h-step forecast continues it.
func TestHoltRecoversLinearTrend(t *testing.T) {
	const a, b = 3.0, 0.75
	series := make([]float64, 80)
	for i := range series {
		series[i] = a + b*float64(i)
	}
	m := NewHolt(0, 0)
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	for h, f := range m.Forecast(10) {
		want := a + b*float64(len(series)+h)
		if math.Abs(f-want) > 1e-9 {
			t.Fatalf("Holt forecast[%d] = %v, want %v", h, f, want)
		}
	}
}

// TestHoltWintersRecoversSeasonality: a planted zero-mean seasonal pattern
// on a flat level is reproduced exactly, phase and all.
func TestHoltWintersRecoversSeasonality(t *testing.T) {
	pattern := []float64{4, -1, -3, 0, 2, -2} // zero mean, period 6
	const level = 10.0
	series := make([]float64, 6*8)
	for i := range series {
		series[i] = level + pattern[i%len(pattern)]
	}
	m := NewHoltWinters(0, 0, 0, len(pattern))
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	for h, f := range m.Forecast(2 * len(pattern)) {
		want := level + pattern[(len(series)+h)%len(pattern)]
		if math.Abs(f-want) > 1e-9 {
			t.Fatalf("Holt-Winters forecast[%d] = %v, want %v", h, f, want)
		}
	}
}

// TestHoltWintersNeedsTwoSeasons: the documented ErrSeriesTooShort contract.
func TestHoltWintersNeedsTwoSeasons(t *testing.T) {
	m := NewHoltWinters(0, 0, 0, 8)
	if err := m.Fit(constant(15, 1)); err == nil {
		t.Fatal("fit succeeded on 15 points with period 8; want ErrSeriesTooShort")
	}
	m2 := NewAutoregressive(8)
	if err := m2.Fit(constant(16, 1)); err == nil {
		t.Fatal("AR(8) fit succeeded on 16 points; want ErrSeriesTooShort")
	}
}

// seasonalNoisy builds the kind of series the selector sees in production:
// a diurnal-ish sinusoid with multiplicative noise, deterministic in seed.
func seasonalNoisy(n, period int, seed uint64) []float64 {
	rng := finmath.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		base := 10 + 6*math.Sin(2*math.Pi*float64(i)/float64(period))
		out[i] = base * (1 + 0.05*rng.NormFloat64())
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// TestSelectorDeterministic: the same series selects the same model with
// bit-identical sMAPE scores, run after run.
func TestSelectorDeterministic(t *testing.T) {
	cfg := Config{SeasonPeriod: 12}.WithDefaults()
	series := seasonalNoisy(120, 12, 2016)
	sel := NewSelector(cfg)
	first, err := sel.Select(series)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := NewSelector(cfg).Select(series)
		if err != nil {
			t.Fatal(err)
		}
		if again.Name != first.Name {
			t.Fatalf("run %d selected %s, first run selected %s", run, again.Name, first.Name)
		}
		if math.Float64bits(again.SMAPE) != math.Float64bits(first.SMAPE) {
			t.Fatalf("run %d sMAPE %x differs from first %x",
				run, math.Float64bits(again.SMAPE), math.Float64bits(first.SMAPE))
		}
		for i, sc := range again.Scores {
			if math.Float64bits(sc.SMAPE) != math.Float64bits(first.Scores[i].SMAPE) {
				t.Fatalf("run %d score[%d] (%s) not bit-identical", run, i, sc.Name)
			}
		}
	}
}

// TestSelectorNeverPicksWorse: the chosen model's sMAPE is the minimum over
// every evaluated candidate, across a spread of series shapes.
func TestSelectorNeverPicksWorse(t *testing.T) {
	cfg := Config{SeasonPeriod: 12}.WithDefaults()
	sel := NewSelector(cfg)
	shapes := map[string][]float64{
		"constant": constant(96, 5),
		"seasonal": seasonalNoisy(120, 12, 7),
		"trend": func() []float64 {
			s := make([]float64, 96)
			for i := range s {
				s[i] = 2 + 0.3*float64(i)
			}
			return s
		}(),
	}
	for name, series := range shapes {
		choice, err := sel.Select(series)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, sc := range choice.Scores {
			if sc.Skipped != "" {
				continue
			}
			if sc.SMAPE < choice.SMAPE {
				t.Errorf("%s: selected %s (sMAPE %.6f) but %s scored %.6f",
					name, choice.Name, choice.SMAPE, sc.Name, sc.SMAPE)
			}
		}
		if choice.Model == nil {
			t.Fatalf("%s: choice carries no fitted model", name)
		}
	}
}

// TestSelectorPrefersSeasonalModelOnSeasonalLoad: on a strongly seasonal
// series with enough history, a structure-aware model (Holt-Winters, or the
// AR whose lag window spans the pattern) must beat the flat EWMA baseline
// decisively — the selector is the reason the subsystem adapts to the trace
// shape.
func TestSelectorPrefersSeasonalModelOnSeasonalLoad(t *testing.T) {
	cfg := Config{SeasonPeriod: 12}.WithDefaults()
	series := seasonalNoisy(240, 12, 99)
	choice, err := NewSelector(cfg).Select(series)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Name != "HoltWinters" && choice.Name != "AR" {
		t.Fatalf("selected %s (sMAPE %.4f) on seasonal load; scores: %+v",
			choice.Name, choice.SMAPE, choice.Scores)
	}
	var ewma float64
	for _, sc := range choice.Scores {
		if sc.Name == "EWMA" {
			ewma = sc.SMAPE
		}
	}
	if choice.SMAPE > ewma/2 {
		t.Fatalf("winner %s sMAPE %.4f not decisively better than EWMA's %.4f",
			choice.Name, choice.SMAPE, ewma)
	}
}

// TestSelectorTooShort: a series below the backtest minimum is a clean
// ErrNoCandidate, not a panic or a bogus choice.
func TestSelectorTooShort(t *testing.T) {
	if _, err := NewSelector(Config{}.WithDefaults()).Select([]float64{1, 2}); err == nil {
		t.Fatal("want ErrNoCandidate on a 2-point series")
	}
}

// TestRecorderRing: capacity eviction keeps the newest samples in order.
func TestRecorderRing(t *testing.T) {
	r, err := NewRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	for i := 0; i < 7; i++ {
		r.Add(Sample{At: base.Add(time.Duration(i) * time.Second), Submissions: i})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 7 {
		t.Fatalf("Total = %d, want 7", r.Total())
	}
	arr := r.Arrivals()
	want := []float64{3, 4, 5, 6}
	for i, v := range arr {
		if v != want[i] {
			t.Fatalf("Arrivals = %v, want %v", arr, want)
		}
	}
	samples := r.Samples()
	for i := 1; i < len(samples); i++ {
		if !samples[i].At.After(samples[i-1].At) {
			t.Fatal("Samples not in chronological order")
		}
	}
	if _, err := NewRecorder(1); err == nil {
		t.Fatal("NewRecorder(1) should fail")
	}
}

// TestPlannerTarget: Little's law with headroom, and the no-opinion guards.
func TestPlannerTarget(t *testing.T) {
	p := NewPlanner(1.2)
	// 10 jobs/s x 0.5 s/job x 1.2 = 6 workers.
	if got := p.Target(10, 0.5); got != 6 {
		t.Fatalf("Target(10, 0.5) = %d, want 6", got)
	}
	// Fractional products round up.
	if got := p.Target(3, 0.5); got != 2 { // 1.8 -> 2
		t.Fatalf("Target(3, 0.5) = %d, want 2", got)
	}
	for _, tc := range [][2]float64{
		{0, 1}, {-4, 1}, {1, 0}, {1, -2},
		{math.NaN(), 1}, {1, math.NaN()}, {math.Inf(1), 1}, {1, math.Inf(1)},
	} {
		if got := p.Target(tc[0], tc[1]); got != 0 {
			t.Fatalf("Target(%v, %v) = %d, want 0 (no opinion)", tc[0], tc[1], got)
		}
	}
	if NewPlanner(0.3).Headroom != DefaultHeadroom {
		t.Fatal("sub-1 headroom should fall back to the default")
	}
}

// TestSMAPE: the metric's fixed points and guards.
func TestSMAPE(t *testing.T) {
	if s := SMAPE([]float64{1, 2}, []float64{1, 2}); s != 0 {
		t.Fatalf("perfect forecast sMAPE = %v, want 0", s)
	}
	if s := SMAPE([]float64{0}, []float64{0}); s != 0 {
		t.Fatalf("0/0 sMAPE = %v, want 0", s)
	}
	if s := SMAPE([]float64{0, 0}, []float64{1, 1}); math.Abs(s-2) > 1e-12 {
		t.Fatalf("maximally wrong sMAPE = %v, want 2", s)
	}
	if s := SMAPE([]float64{1}, []float64{1, 2}); !math.IsNaN(s) {
		t.Fatalf("length mismatch sMAPE = %v, want NaN", s)
	}
}

// TestConfigValidate: the defaulted config is admissible and the documented
// rejections fire.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config (defaulted): %v", err)
	}
	bad := []Config{
		{MinSamples: 1},
		{Headroom: 0.5},
		{Headroom: math.NaN()},
		{Headroom: math.Inf(1)},
		{SeasonPeriod: -1},
		{Window: 32, SeasonPeriod: 20},
		{ReselectEvery: -1},
		{BacktestWindow: 1},
		{RuntimeAlpha: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, cfg)
		}
	}
	// Candidate family: HW present only with a season period.
	if n := len((Config{}).Candidates()); n != 3 {
		t.Fatalf("aseasonal candidate family has %d models, want 3", n)
	}
	if n := len((Config{SeasonPeriod: 12}).Candidates()); n != 4 {
		t.Fatalf("seasonal candidate family has %d models, want 4", n)
	}
}
