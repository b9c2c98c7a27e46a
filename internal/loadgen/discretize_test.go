package loadgen

import (
	"math"
	"reflect"
	"testing"
)

// checkStochastic asserts the structural invariants every PhaseModel must
// hold: square row-stochastic transition matrix, a one-hot initial
// distribution, finite non-negative phase rates, and a full audit trail.
func checkStochastic(t *testing.T, m PhaseModel, intervals int) {
	t.Helper()
	p := len(m.Rates)
	if p == 0 {
		t.Fatal("model has no phases")
	}
	if len(m.Trans) != p || len(m.Init) != p {
		t.Fatalf("shape mismatch: %d rates, %d trans rows, %d init", p, len(m.Trans), len(m.Init))
	}
	initSum := 0.0
	for _, v := range m.Init {
		initSum += v
	}
	if math.Abs(initSum-1) > 1e-12 {
		t.Fatalf("init distribution sums to %g", initSum)
	}
	for i, row := range m.Trans {
		if len(row) != p {
			t.Fatalf("row %d has %d entries, want %d", i, len(row), p)
		}
		sum := 0.0
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("transition probability %g outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
	for i, r := range m.Rates {
		if !(r >= 0) || math.IsInf(r, 0) {
			t.Fatalf("phase %d rate %g is not finite non-negative", i, r)
		}
	}
	if len(m.PhaseOf) != intervals {
		t.Fatalf("PhaseOf covers %d intervals, want %d", len(m.PhaseOf), intervals)
	}
	for i, ph := range m.PhaseOf {
		if ph < 0 || ph >= p {
			t.Fatalf("interval %d assigned out-of-range phase %d", i, ph)
		}
	}
}

func TestDiscretizeConstantRates(t *testing.T) {
	rates := []float64{3, 3, 3, 3, 3}
	m, err := DiscretizeRates(rates, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkStochastic(t, m, len(rates))
	if len(m.Rates) != 1 {
		t.Fatalf("constant signal produced %d phases, want 1", len(m.Rates))
	}
	if m.Rates[0] != 3 || m.Trans[0][0] != 1 || m.Init[0] != 1 {
		t.Fatalf("constant model %+v is not the self-looping point mass at 3", m)
	}
}

func TestDiscretizeRampIsMonotone(t *testing.T) {
	spec := Spec{Kind: Ramp, Intervals: 96, Seed: 5, BaseRate: 1, PeakRate: 9}
	rates, err := Rates(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DiscretizeRates(rates, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkStochastic(t, m, len(rates))
	if len(m.Rates) != 4 {
		t.Fatalf("ramp over 4 levels produced %d phases", len(m.Rates))
	}
	// A monotone ramp only ever moves to the same or the next-higher phase,
	// and starts at the lowest.
	if m.Init[m.PhaseOf[0]] != 1 || m.PhaseOf[0] != 0 {
		t.Fatalf("ramp does not start in its lowest phase: init %v", m.Init)
	}
	for i, row := range m.Trans {
		for j, v := range row {
			if v > 0 && j != i && j != i+1 {
				t.Fatalf("ramp phase %d transitions to non-adjacent phase %d (p=%g)", i, j, v)
			}
		}
	}
	for i := 1; i < len(m.Rates); i++ {
		if m.Rates[i] <= m.Rates[i-1] {
			t.Fatalf("ramp phase rates not increasing: %v", m.Rates)
		}
	}
}

func TestDiscretizeDiurnalSeparatesBranches(t *testing.T) {
	spec := Spec{Kind: Diurnal, Intervals: 96, Seed: 7, BaseRate: 2, PeakRate: 8, Period: 16}
	rates, err := Rates(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DiscretizeRates(rates, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkStochastic(t, m, len(rates))
	// The sinusoid visits interior levels on both the rising and the falling
	// branch, so the phase count must exceed the level count...
	if len(m.Rates) <= 4 {
		t.Fatalf("diurnal discretization collapsed the branches: %d phases", len(m.Rates))
	}
	// ...and the chain must conserve the signal's long-run mean: the expected
	// rate under the occupancy of PhaseOf equals the profile mean exactly
	// (each interval contributes its own rate to its phase's average).
	profileMean, chainMean := 0.0, 0.0
	for _, r := range rates {
		profileMean += r
	}
	profileMean /= float64(len(rates))
	for _, ph := range m.PhaseOf {
		chainMean += m.Rates[ph]
	}
	chainMean /= float64(len(m.PhaseOf))
	if math.Abs(profileMean-chainMean) > 1e-9 {
		t.Fatalf("occupancy-weighted phase rate %g drifted from profile mean %g", chainMean, profileMean)
	}
}

func TestDiscretizeDeterminism(t *testing.T) {
	spec := Spec{Kind: Mixed, Intervals: 120, Seed: 3, BaseRate: 2, PeakRate: 9}
	rates, err := Rates(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := DiscretizeRates(rates, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DiscretizeRates(rates, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two discretizations of the same profile differ")
	}
}

func TestDiscretizeRejectsDegenerateInput(t *testing.T) {
	cases := []struct {
		name   string
		rates  []float64
		levels int
	}{
		{"too short", []float64{1}, 4},
		{"zero levels", []float64{1, 2}, 0},
		{"levels past cap", []float64{1, 2}, MaxPhaseLevels + 1},
		{"NaN rate", []float64{1, math.NaN()}, 4},
		{"negative rate", []float64{1, -2}, 4},
		{"infinite rate", []float64{1, math.Inf(1)}, 4},
	}
	for _, tc := range cases {
		if _, err := DiscretizeRates(tc.rates, tc.levels); err == nil {
			t.Errorf("%s: DiscretizeRates accepted degenerate input", tc.name)
		}
	}
}
