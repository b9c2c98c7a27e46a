package ml

import (
	"math"
	"testing"

	"disarcloud/internal/finmath"
)

// linearDataset builds y = 3*x0 - 2*x1 + 5 + noise*eps.
func linearDataset(rng *finmath.RNG, n int, noise float64) *Dataset {
	d := NewDataset([]string{"x0", "x1"})
	for i := 0; i < n; i++ {
		x0 := rng.Float64() * 10
		x1 := rng.Float64() * 4
		y := 3*x0 - 2*x1 + 5 + noise*rng.NormFloat64()
		_ = d.Add([]float64{x0, x1}, y)
	}
	return d
}

// execTimeDataset mimics the provisioning learning problem: a positive
// nonlinear response with interaction terms and mild noise.
func execTimeDataset(rng *finmath.RNG, n int) *Dataset {
	d := NewDataset([]string{"nodes", "contracts", "horizon"})
	for i := 0; i < n; i++ {
		nodes := float64(1 + rng.Intn(8))
		contracts := float64(5 + rng.Intn(60))
		horizon := float64(5 + rng.Intn(35))
		y := 40 + contracts*horizon/nodes*1.5 + 12*nodes
		y *= 1 + 0.05*rng.NormFloat64()
		_ = d.Add([]float64{nodes, contracts, horizon}, y)
	}
	return d
}

func TestDatasetAddValidation(t *testing.T) {
	d := NewDataset([]string{"a", "b"})
	if err := d.Add([]float64{1}, 0); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	if err := d.Add([]float64{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]float64{1, 2, 3}, 4); err == nil {
		t.Fatal("dimension change accepted")
	}
	if d.Len() != 1 || d.NumFeatures() != 2 {
		t.Fatal("dataset accounting wrong")
	}
}

func TestDatasetAddCopies(t *testing.T) {
	d := NewDataset(nil)
	buf := []float64{1, 2}
	_ = d.Add(buf, 3)
	buf[0] = 99
	if d.Instances[0].Features[0] != 1 {
		t.Fatal("Add did not copy features")
	}
}

func TestSplitProportions(t *testing.T) {
	rng := finmath.NewRNG(1)
	d := linearDataset(rng, 100, 0)
	train, test := d.Split(finmath.NewRNG(2), 0.4)
	if train.Len() != 40 || test.Len() != 60 {
		t.Fatalf("split %d/%d, want 40/60", train.Len(), test.Len())
	}
	// No instance lost or duplicated: total target mass preserved.
	sum := func(ds *Dataset) float64 {
		s := 0.0
		for _, in := range ds.Instances {
			s += in.Target
		}
		return s
	}
	if math.Abs(sum(train)+sum(test)-sum(d)) > 1e-9 {
		t.Fatal("split lost instances")
	}
}

func TestSplitPanicsOnBadFraction(t *testing.T) {
	d := linearDataset(finmath.NewRNG(1), 10, 0)
	for _, frac := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%v) did not panic", frac)
				}
			}()
			d.Split(finmath.NewRNG(1), frac)
		}()
	}
}

func TestAllLearnersOnLinearProblem(t *testing.T) {
	rng := finmath.NewRNG(42)
	d := linearDataset(rng, 400, 0.5)
	train, test := d.Split(finmath.NewRNG(7), 0.6)
	for _, m := range NewSuite(1) {
		if err := m.Train(train); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		ev, err := Evaluate(m, test)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if ev.R2 < 0.55 {
			t.Errorf("%s: R2 = %v on an easy linear problem", m.Name(), ev.R2)
		}
	}
}

func TestAllLearnersOnExecTimeProblem(t *testing.T) {
	rng := finmath.NewRNG(123)
	d := execTimeDataset(rng, 600)
	train, test := d.Split(finmath.NewRNG(9), 0.4)
	for _, m := range NewSuite(5) {
		if err := m.Train(train); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		ev, _ := Evaluate(m, test)
		meanY := finmath.Mean(test.Targets())
		// 0.40 accommodates the Decision Table, the coarsest of the six
		// learners on interaction-heavy responses.
		if ev.MAE > 0.40*meanY {
			t.Errorf("%s: MAE %v vs mean target %v — unusable accuracy", m.Name(), ev.MAE, meanY)
		}
	}
}

func TestLearnersDeterministic(t *testing.T) {
	d := execTimeDataset(finmath.NewRNG(3), 150)
	probe := []float64{4, 30, 20}
	builders := map[string]func() Model{
		"MLP":   func() Model { return NewMLP(11) },
		"RT":    func() Model { return NewRandomTree(11) },
		"RF":    func() Model { return &RandomForest{Trees: 15, Seed: 11} },
		"IBk":   func() Model { return NewIBk() },
		"KStar": func() Model { return NewKStar() },
		"DT":    func() Model { return NewDecisionTable() },
	}
	for name, build := range builders {
		a, b := build(), build()
		if err := a.Train(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Train(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Predict(probe) != b.Predict(probe) {
			t.Errorf("%s not deterministic", name)
		}
	}
}

func TestLearnersRejectEmpty(t *testing.T) {
	empty := NewDataset(nil)
	for _, m := range NewSuite(1) {
		if err := m.Train(empty); err == nil {
			t.Errorf("%s accepted empty dataset", m.Name())
		}
	}
}

func TestLearnersConstantTarget(t *testing.T) {
	d := NewDataset(nil)
	rng := finmath.NewRNG(8)
	for i := 0; i < 60; i++ {
		_ = d.Add([]float64{rng.Float64(), rng.Float64()}, 42)
	}
	for _, m := range NewSuite(2) {
		if err := m.Train(d); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		got := m.Predict([]float64{0.5, 0.5})
		if math.Abs(got-42) > 1.5 {
			t.Errorf("%s: constant-target prediction %v, want 42", m.Name(), got)
		}
	}
}

func TestIBkExactRecall(t *testing.T) {
	d := NewDataset(nil)
	_ = d.Add([]float64{1, 1}, 10)
	_ = d.Add([]float64{5, 5}, 50)
	_ = d.Add([]float64{9, 9}, 90)
	m := &IBk{K: 1}
	if err := m.Train(d); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{5, 5}); got != 50 {
		t.Fatalf("exact recall = %v, want 50", got)
	}
	// Interpolation between neighbours with k=2.
	m2 := &IBk{K: 2}
	_ = m2.Train(d)
	got := m2.Predict([]float64{3, 3})
	if got <= 10 || got >= 50 {
		t.Fatalf("k=2 interpolation = %v, want within (10,50)", got)
	}
}

func TestIBkUniformVsWeighted(t *testing.T) {
	d := NewDataset(nil)
	_ = d.Add([]float64{0}, 0)
	_ = d.Add([]float64{1}, 100)
	uni := &IBk{K: 2, Weighting: IBkUniform}
	_ = uni.Train(d)
	// Uniform: midpoint regardless of query.
	if got := uni.Predict([]float64{0.1}); math.Abs(got-50) > 1e-9 {
		t.Fatalf("uniform = %v, want 50", got)
	}
	wgt := &IBk{K: 2, Weighting: IBkInverseDistance}
	_ = wgt.Train(d)
	if got := wgt.Predict([]float64{0.1}); got >= 50 {
		t.Fatalf("weighted = %v, want < 50 (closer to 0)", got)
	}
}

func TestKStarExactMatch(t *testing.T) {
	d := NewDataset(nil)
	_ = d.Add([]float64{1, 2}, 7)
	_ = d.Add([]float64{3, 4}, 9)
	_ = d.Add([]float64{1, 2}, 11) // duplicate point, different target
	m := NewKStar()
	if err := m.Train(d); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{1, 2}); math.Abs(got-9) > 1e-9 {
		t.Fatalf("exact-match average = %v, want 9", got)
	}
}

func TestKStarBlendControlsSmoothing(t *testing.T) {
	rng := finmath.NewRNG(4)
	d := NewDataset(nil)
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 10
		_ = d.Add([]float64{x}, x*x)
	}
	sharp := &KStar{Blend: 0.02}
	smooth := &KStar{Blend: 0.9}
	_ = sharp.Train(d)
	_ = smooth.Train(d)
	// At the domain edge, heavy smoothing pulls the prediction toward the
	// global mean; the sharp learner stays near the local value.
	probe := []float64{9.8}
	local := 9.8 * 9.8
	mean := finmath.Mean(d.Targets())
	sharpPred := sharp.Predict(probe)
	smoothPred := smooth.Predict(probe)
	if math.Abs(sharpPred-local) > math.Abs(smoothPred-local) {
		t.Fatalf("sharp blend further from local value: %v vs %v", sharpPred, smoothPred)
	}
	if math.Abs(smoothPred-mean) > math.Abs(sharpPred-mean) {
		t.Fatalf("smooth blend further from mean: %v vs %v", smoothPred, sharpPred)
	}
}

func TestRandomTreePerfectSplitProblem(t *testing.T) {
	// A step function on feature 0 should be learned exactly.
	d := NewDataset(nil)
	rng := finmath.NewRNG(5)
	for i := 0; i < 200; i++ {
		x := rng.Float64()
		y := 10.0
		if x > 0.5 {
			y = 20.0
		}
		_ = d.Add([]float64{x, rng.Float64()}, y)
	}
	m := &RandomTree{K: 2, Seed: 1}
	if err := m.Train(d); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0.1, 0.5}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("left side = %v, want 10", got)
	}
	if got := m.Predict([]float64{0.9, 0.5}); math.Abs(got-20) > 1e-9 {
		t.Fatalf("right side = %v, want 20", got)
	}
	if m.Depth() == 0 {
		t.Fatal("tree did not split")
	}
}

func TestRandomTreeMaxDepth(t *testing.T) {
	d := execTimeDataset(finmath.NewRNG(6), 300)
	shallow := &RandomTree{MaxDepth: 2, Seed: 1}
	deep := &RandomTree{Seed: 1}
	_ = shallow.Train(d)
	_ = deep.Train(d)
	if shallow.Depth() > 2 {
		t.Fatalf("depth cap violated: %d", shallow.Depth())
	}
	if deep.Depth() <= shallow.Depth() {
		t.Fatal("unbounded tree not deeper than capped tree")
	}
}

func TestForestBeatsSingleTreeOnNoise(t *testing.T) {
	rng := finmath.NewRNG(77)
	d := execTimeDataset(rng, 500)
	train, test := d.Split(finmath.NewRNG(13), 0.5)
	tree := &RandomTree{Seed: 3}
	forest := &RandomForest{Trees: 40, Seed: 3}
	_ = tree.Train(train)
	_ = forest.Train(train)
	evT, _ := Evaluate(tree, test)
	evF, _ := Evaluate(forest, test)
	if evF.RMSE >= evT.RMSE {
		t.Fatalf("forest RMSE %v >= tree RMSE %v", evF.RMSE, evT.RMSE)
	}
}

func TestDecisionTableSelectsRelevantFeature(t *testing.T) {
	rng := finmath.NewRNG(21)
	d := NewDataset([]string{"relevant", "noise1", "noise2"})
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 10
		_ = d.Add([]float64{x, rng.Float64(), rng.Float64()}, 100*x)
	}
	m := NewDecisionTable()
	if err := m.Train(d); err != nil {
		t.Fatal(err)
	}
	sel := m.SelectedFeatures()
	found := false
	for _, f := range sel {
		if f == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("relevant feature not selected: %v", sel)
	}
}

func TestDecisionTableFallbackToGlobalMean(t *testing.T) {
	d := NewDataset(nil)
	for i := 0; i < 50; i++ {
		_ = d.Add([]float64{float64(i)}, float64(i))
	}
	m := NewDecisionTable()
	_ = m.Train(d)
	// A query far outside the training range lands in the last bin, which
	// exists; craft an unmatched cell by training on two features instead.
	d2 := NewDataset(nil)
	_ = d2.Add([]float64{0, 0}, 5)
	_ = d2.Add([]float64{0, 0}, 7)
	m2 := NewDecisionTable()
	_ = m2.Train(d2)
	if got := m2.Predict([]float64{0, 0}); math.Abs(got-6) > 1e-9 {
		t.Fatalf("cell mean = %v, want 6", got)
	}
}

// TestDecisionTableRejectsCellSpacesBeyondTheKey: bin codes are packed as
// base-Bins digits of one uint64; a table too wide for that must say so
// instead of colliding cells.
func TestDecisionTableRejectsCellSpacesBeyondTheKey(t *testing.T) {
	wide := NewDataset(nil)
	_ = wide.Add(make([]float64, 22), 1) // 8^22 > 2^64
	if err := NewDecisionTable().Train(wide); err == nil {
		t.Fatal("22 features x 8 bins trained on a 64-bit cell key")
	}
	fits := NewDataset(nil)
	_ = fits.Add(make([]float64, 21), 1) // 8^21 = 2^63
	if err := NewDecisionTable().Train(fits); err != nil {
		t.Fatal(err)
	}
}

func TestMLPLearnsNonlinearity(t *testing.T) {
	rng := finmath.NewRNG(31)
	d := NewDataset(nil)
	for i := 0; i < 500; i++ {
		x := rng.Float64()*4 - 2
		_ = d.Add([]float64{x}, x*x)
	}
	m := &MLP{Hidden: 8, Epochs: 400, Seed: 2}
	if err := m.Train(d); err != nil {
		t.Fatal(err)
	}
	// A linear model cannot do better than MAE ~0.9 on x^2 over [-2,2];
	// the MLP must.
	var mae float64
	n := 0
	for x := -1.9; x <= 1.9; x += 0.1 {
		mae += math.Abs(m.Predict([]float64{x}) - x*x)
		n++
	}
	mae /= float64(n)
	if mae > 0.4 {
		t.Fatalf("MLP MAE %v on x^2 — failed to learn the nonlinearity", mae)
	}
}

func TestEnsembleAveragesMembers(t *testing.T) {
	e := &Ensemble{Models: []Model{constModel(10), constModel(30)}}
	d := NewDataset(nil)
	_ = d.Add([]float64{1}, 1)
	if err := e.Train(d); err != nil {
		t.Fatal(err)
	}
	if got := e.Predict([]float64{1}); got != 20 {
		t.Fatalf("ensemble = %v, want 20", got)
	}
	empty := &Ensemble{}
	if err := empty.Train(d); err == nil {
		t.Fatal("empty ensemble accepted")
	}
}

type constModel float64

func (c constModel) Name() string              { return "const" }
func (c constModel) Train(*Dataset) error      { return nil }
func (c constModel) Predict([]float64) float64 { return float64(c) }

func TestEvaluateMetrics(t *testing.T) {
	m := constModel(10)
	test := NewDataset(nil)
	_ = test.Add([]float64{0}, 8)
	_ = test.Add([]float64{0}, 14)
	ev, err := Evaluate(m, test)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.MAE-3) > 1e-12 { // |10-8|=2, |10-14|=4
		t.Fatalf("MAE = %v, want 3", ev.MAE)
	}
	wantRMSE := math.Sqrt((4.0 + 16.0) / 2)
	if math.Abs(ev.RMSE-wantRMSE) > 1e-12 {
		t.Fatalf("RMSE = %v, want %v", ev.RMSE, wantRMSE)
	}
	if math.Abs(ev.SignedMeanError-(-1)) > 1e-12 { // (2 + -4)/2
		t.Fatalf("delta-bar = %v, want -1", ev.SignedMeanError)
	}
	if _, err := Evaluate(m, NewDataset(nil)); err == nil {
		t.Fatal("empty test set accepted")
	}
}

func TestCrossValidate(t *testing.T) {
	d := execTimeDataset(finmath.NewRNG(51), 120)
	evals, err := CrossValidate(func() Model { return NewIBk() }, d, 5, finmath.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 5 {
		t.Fatalf("%d folds", len(evals))
	}
	total := 0
	for _, ev := range evals {
		total += len(ev.Actuals)
	}
	if total != d.Len() {
		t.Fatalf("folds cover %d instances, want %d", total, d.Len())
	}
	if _, err := CrossValidate(func() Model { return NewIBk() }, d, 1, finmath.NewRNG(1)); err == nil {
		t.Fatal("1-fold CV accepted")
	}
}

func TestSuiteShape(t *testing.T) {
	suite := NewSuite(9)
	names := SuiteNames()
	if len(suite) != 6 || len(names) != 6 {
		t.Fatal("suite must have six learners")
	}
	for i, m := range suite {
		if m.Name() != names[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, m.Name(), names[i])
		}
	}
	if NewEnsemble(9).Name() != "Ensemble" {
		t.Fatal("ensemble name")
	}
}

func TestNormalizerProperties(t *testing.T) {
	d := execTimeDataset(finmath.NewRNG(61), 100)
	norm := fitNormalizer(d)
	for _, in := range d.Instances {
		for k, v := range norm.apply(in.Features) {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("normalised feature %d = %v outside [0,1]", k, v)
			}
		}
	}
}
