package alm

import (
	"context"
	"math"
	"testing"

	"disarcloud/internal/finmath"
)

// TestFitProxyRecoversPlantedPolynomial plants a degree-2 polynomial payoff
// over random features and checks the LSMC regression recovers it exactly
// (up to the vanishing ridge penalty): the fitted proxy must reproduce the
// planted values at both the calibration points and fresh points.
func TestFitProxyRecoversPlantedPolynomial(t *testing.T) {
	rng := finmath.NewRNG(99)
	payoff := func(x []float64) float64 {
		return 3 + 0.7*x[0] - 1.2*x[1] + 0.4*x[0]*x[1] + 0.25*x[0]*x[0] - 0.1*x[1]*x[1]
	}
	sample := func(n int) ([][]float64, []float64) {
		feats := make([][]float64, n)
		targets := make([]float64, n)
		for i := range feats {
			x := []float64{rng.NormFloat64(), rng.NormFloat64()}
			feats[i] = x
			targets[i] = payoff(x)
		}
		return feats, targets
	}
	feats, targets := sample(200)
	spec := LSMCSpec{Degree: 2, Ridge: 1e-12}
	proxy, err := FitProxy(feats, targets, spec)
	if err != nil {
		t.Fatal(err)
	}
	check := func(feats [][]float64, targets []float64, label string) {
		for i, x := range feats {
			got := proxy.Evaluate(x)
			if math.Abs(got-targets[i]) > 1e-6*math.Max(1, math.Abs(targets[i])) {
				t.Fatalf("%s point %d: proxy %v != planted %v", label, i, got, targets[i])
			}
		}
	}
	check(feats, targets, "calibration")
	fresh, freshTargets := sample(50)
	check(fresh, freshTargets, "held-out")
}

func TestFitProxyRejectsDegenerateInput(t *testing.T) {
	if _, err := FitProxy(nil, nil, LSMCSpec{Degree: 2}); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := FitProxy([][]float64{{1, 2}}, []float64{1, 2}, LSMCSpec{Degree: 2}); err == nil {
		t.Fatal("mismatched rows/targets accepted")
	}
	if _, err := FitProxy([][]float64{{1, 2}}, []float64{1}, LSMCSpec{Degree: 0}); err == nil {
		t.Fatal("non-positive degree accepted")
	}
	// Fewer points than basis functions cannot determine the expansion.
	feats := [][]float64{{1, 2}, {3, 4}}
	if _, err := FitProxy(feats, []float64{1, 2}, LSMCSpec{Degree: 2}); err == nil {
		t.Fatal("underdetermined sample accepted")
	}
}

func TestLSMCSpecValidateRejectsDegenerate(t *testing.T) {
	cases := []struct {
		name string
		spec LSMCSpec
	}{
		{"zero calib outer", LSMCSpec{CalibOuter: 0, CalibInner: 5, Degree: 2}},
		{"negative calib outer", LSMCSpec{CalibOuter: -3, CalibInner: 5, Degree: 2}},
		{"zero calib inner", LSMCSpec{CalibOuter: 50, CalibInner: 0, Degree: 2}},
		{"zero degree", LSMCSpec{CalibOuter: 50, CalibInner: 5, Degree: 0}},
		{"too few paths for basis", LSMCSpec{CalibOuter: 5, CalibInner: 5, Degree: 3}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(4); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	ok := LSMCSpec{CalibOuter: 200, CalibInner: 5, Degree: 2}
	if err := ok.Validate(4); err != nil {
		t.Errorf("well-posed spec rejected: %v", err)
	}
}

// TestProxyEvaluationBitDeterministic calibrates the same block twice under
// one seed and demands bit-identical proxies — the reproducibility guarantee
// the golden-file campaign relies on.
func TestProxyEvaluationBitDeterministic(t *testing.T) {
	b := smallBlock(t, 60, 4)
	spec := LSMCSpec{CalibOuter: 40, CalibInner: 4, Degree: 2}
	v1, err := NewValuer(b, 20160628)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := v1.CalibrateProxy(spec)
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := NewValuer(b, 20160628)
	p2, err := v2.CalibrateProxy(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = v1.WalkOuter(context.Background(), 0, b.Outer, func(i int, st OuterState) error {
		f := v1.Features(st)
		if e1, e2 := p1.Evaluate(f), p2.Evaluate(f); e1 != e2 {
			t.Fatalf("outer %d: proxy evaluations differ: %v != %v", i, e1, e2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := v1.ValueLSMC(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := v2.ValueLSMC(spec)
	if r1.BEL != r2.BEL || r1.SCR != r2.SCR {
		t.Fatal("LSMC valuation not bit-deterministic under fixed seed")
	}
}

func TestWalkOuterMatchesGenerateOuter(t *testing.T) {
	b := smallBlock(t, 20, 2)
	v, err := NewValuer(b, 5)
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	err = v.WalkOuter(context.Background(), 0, b.Outer, func(i int, st OuterState) error {
		want := v.GenerateOuter(i)
		if st.FundReturn != want.FundReturn || st.Discount != want.Discount {
			t.Fatalf("outer %d: walked state (%v,%v) != generated (%v,%v)",
				i, st.FundReturn, st.Discount, want.FundReturn, want.Discount)
		}
		visited++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != b.Outer {
		t.Fatalf("walked %d paths, want %d", visited, b.Outer)
	}
	if err := v.WalkOuter(context.Background(), -1, 3, func(int, OuterState) error { return nil }); err == nil {
		t.Fatal("negative from accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := v.WalkOuter(ctx, 0, 5, func(int, OuterState) error { return nil }); err == nil {
		t.Fatal("cancelled context not observed")
	}
}

// TestValueOutersMatchesValueRange is the escalation correctness property:
// re-valuing a scattered subset of outer indices must reproduce, bit for
// bit, the values the contiguous full walk assigns those indices.
func TestValueOutersMatchesValueRange(t *testing.T) {
	b := smallBlock(t, 30, 3)
	v, err := NewValuer(b, 11)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := v.OuterSlice(0, b.Outer)
	if err != nil {
		t.Fatal(err)
	}
	indices := []int{27, 3, 14, 0, 29}
	calls := 0
	got, err := v.ValueOuters(context.Background(), indices, b.Inner, func() { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(indices) {
		t.Fatalf("onPath ran %d times, want %d", calls, len(indices))
	}
	for k, i := range indices {
		if got[k] != whole[i] {
			t.Fatalf("outer %d: scattered value %v != contiguous %v", i, got[k], whole[i])
		}
	}
	if _, err := v.ValueOuters(context.Background(), []int{-1}, b.Inner, nil); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := v.ValueOuters(context.Background(), []int{1}, 0, nil); err == nil {
		t.Fatal("zero inner paths accepted")
	}
}

func TestSummarizeMatchesAssemble(t *testing.T) {
	b := smallBlock(t, 25, 2)
	v, err := NewValuer(b, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.ValueNested()
	if err != nil {
		t.Fatal(err)
	}
	again := Summarize(res.Y1, res.DiscountedY1, "proxy")
	if again.BEL != res.BEL || again.SCR != res.SCR || again.StdErr != res.StdErr {
		t.Fatal("Summarize disagrees with the nested assembly")
	}
	if again.Method != "proxy" {
		t.Fatalf("method = %q, want proxy", again.Method)
	}
}
