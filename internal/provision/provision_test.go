package provision

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"disarcloud/internal/cloud"
	"disarcloud/internal/eeb"
	"disarcloud/internal/finmath"
	"disarcloud/internal/kb"
)

func params() eeb.CharacteristicParams {
	return eeb.CharacteristicParams{
		RepresentativeContracts: 15, MaxHorizon: 25, FundAssets: 8,
		RiskFactors: 3, OuterPaths: 1000, InnerPaths: 50,
	}
}

// perfPredictor wraps the ground-truth performance model as an oracle
// predictor, isolating Algorithm 1's logic from ML noise in tests.
type perfPredictor struct {
	pm        cloud.PerfModel
	untrained map[string]bool
}

func (p *perfPredictor) PredictSeconds(arch string, nodes int, f eeb.CharacteristicParams) (float64, error) {
	if p.untrained[arch] {
		return 0, ErrUntrained
	}
	it, ok := cloud.TypeByName(arch)
	if !ok {
		return 0, errors.New("unknown arch")
	}
	return p.pm.MeanExecSeconds(it, nodes, f), nil
}

func newOracle() *perfPredictor {
	return &perfPredictor{pm: cloud.DefaultPerfModel(), untrained: map[string]bool{}}
}

func TestConstraintsValidate(t *testing.T) {
	good := Constraints{TmaxSeconds: 600, MaxNodes: 8, Epsilon: 0.05}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Constraints{
		{TmaxSeconds: 0, MaxNodes: 8},
		{TmaxSeconds: 600, MaxNodes: 0},
		{TmaxSeconds: 600, MaxNodes: 8, Epsilon: 1.5},
		{TmaxSeconds: math.NaN(), MaxNodes: 8},
		{TmaxSeconds: math.Inf(1), MaxNodes: 8},
		{TmaxSeconds: 600, MaxNodes: 8, Epsilon: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad constraints %d accepted", i)
		}
	}
}

func TestSelectorValidation(t *testing.T) {
	rng := finmath.NewRNG(1)
	if _, err := NewSelector(nil, nil, rng); err == nil {
		t.Fatal("nil predictor accepted")
	}
	if _, err := NewSelector(newOracle(), nil, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := NewSelector(newOracle(), []cloud.InstanceType{}, rng); err == nil {
		t.Fatal("empty catalog accepted")
	}
}

func TestSelectPicksCheapestFeasible(t *testing.T) {
	s, err := NewSelector(newOracle(), nil, finmath.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	c := Constraints{TmaxSeconds: 400, MaxNodes: 8, Epsilon: 0}
	choice, err := s.Select(context.Background(), params(), c)
	if err != nil {
		t.Fatal(err)
	}
	if choice.PredictedSeconds > c.TmaxSeconds {
		t.Fatalf("selected config misses deadline: %v", choice)
	}
	// Exhaustively verify minimality against the oracle.
	cands, _ := s.Candidates(context.Background(), params(), c)
	for _, cand := range cands {
		if cand.PredictedCost < choice.PredictedCost {
			t.Fatalf("cheaper feasible candidate exists: %v < %v", cand, choice)
		}
	}
	if choice.Explored {
		t.Fatal("epsilon=0 must not explore")
	}
}

func TestSelectRespectsTightDeadline(t *testing.T) {
	s, _ := NewSelector(newOracle(), nil, finmath.NewRNG(1))
	// A tight deadline forces bigger (more expensive) configurations.
	loose, err := s.Select(context.Background(), params(), Constraints{TmaxSeconds: 500, MaxNodes: 8, Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := s.Select(context.Background(), params(), Constraints{TmaxSeconds: 220, MaxNodes: 8, Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	if tight.PredictedCost < loose.PredictedCost {
		t.Fatalf("tight deadline cheaper than loose: %v vs %v", tight, loose)
	}
	if tight.PredictedSeconds > 220 {
		t.Fatalf("deadline violated: %v", tight)
	}
}

func TestSelectNoFeasible(t *testing.T) {
	s, _ := NewSelector(newOracle(), nil, finmath.NewRNG(1))
	_, err := s.Select(context.Background(), params(), Constraints{TmaxSeconds: 1, MaxNodes: 2, Epsilon: 0})
	if !errors.Is(err, ErrNoFeasible) {
		t.Fatalf("want ErrNoFeasible, got %v", err)
	}
}

func TestSelectUntrainedArchitecturesSkipped(t *testing.T) {
	oracle := newOracle()
	for _, it := range cloud.Catalog() {
		oracle.untrained[it.Name] = true
	}
	oracle.untrained["c3.4xlarge"] = false
	s, _ := NewSelector(oracle, nil, finmath.NewRNG(1))
	choice, err := s.Select(context.Background(), params(), Constraints{TmaxSeconds: 600, MaxNodes: 8, Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Primary().Type.Name != "c3.4xlarge" {
		t.Fatalf("selected untrained architecture: %v", choice)
	}
}

func TestSelectAllUntrained(t *testing.T) {
	oracle := newOracle()
	for _, it := range cloud.Catalog() {
		oracle.untrained[it.Name] = true
	}
	s, _ := NewSelector(oracle, nil, finmath.NewRNG(1))
	_, err := s.Select(context.Background(), params(), Constraints{TmaxSeconds: 600, MaxNodes: 4, Epsilon: 0})
	if !errors.Is(err, ErrUntrained) {
		t.Fatalf("want ErrUntrained, got %v", err)
	}
}

func TestEpsilonGreedyExplores(t *testing.T) {
	s, _ := NewSelector(newOracle(), nil, finmath.NewRNG(42))
	c := Constraints{TmaxSeconds: 600, MaxNodes: 8, Epsilon: 0.5}
	explored, exploited := 0, 0
	for i := 0; i < 200; i++ {
		choice, err := s.Select(context.Background(), params(), c)
		if err != nil {
			t.Fatal(err)
		}
		if choice.PredictedSeconds > c.TmaxSeconds {
			t.Fatal("exploration violated the deadline filter")
		}
		if choice.Explored {
			explored++
		} else {
			exploited++
		}
	}
	if explored < 60 || explored > 140 {
		t.Fatalf("explored %d of 200 with epsilon 0.5", explored)
	}
	if exploited == 0 {
		t.Fatal("never exploited")
	}
}

func TestSelectFastest(t *testing.T) {
	s, _ := NewSelector(newOracle(), nil, finmath.NewRNG(1))
	fast, err := s.SelectFastest(context.Background(), params(), 8)
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := s.Candidates(context.Background(), params(), Constraints{TmaxSeconds: 1e18, MaxNodes: 8, Epsilon: 0})
	for _, cand := range cands {
		if cand.PredictedSeconds < fast.PredictedSeconds {
			t.Fatalf("faster candidate exists: %v < %v", cand, fast)
		}
	}
}

func TestHeterogeneousExtension(t *testing.T) {
	s, _ := NewSelector(newOracle(), nil, finmath.NewRNG(3))
	s.Heterogeneous = true
	c := Constraints{TmaxSeconds: 600, MaxNodes: 4, Epsilon: 0}
	cands, err := s.Candidates(context.Background(), params(), c)
	if err != nil {
		t.Fatal(err)
	}
	hasHet := false
	for _, cand := range cands {
		if len(cand.Slots) == 2 {
			hasHet = true
			if cand.Slots[0].Type.Name == cand.Slots[1].Type.Name {
				t.Fatal("heterogeneous slot with identical types")
			}
			if cand.TotalNodes() > c.MaxNodes {
				t.Fatalf("mix exceeds node budget: %v", cand)
			}
			if cand.PredictedSeconds > c.TmaxSeconds {
				t.Fatal("infeasible mix returned")
			}
		}
	}
	if !hasHet {
		t.Fatal("no heterogeneous candidates generated")
	}
	// A mix is never slower than its slower half run alone.
	choice, err := s.Select(context.Background(), params(), c)
	if err != nil {
		t.Fatal(err)
	}
	if choice.PredictedSeconds > c.TmaxSeconds {
		t.Fatal("heterogeneous selection misses deadline")
	}
}

func TestChoiceString(t *testing.T) {
	it, _ := cloud.TypeByName("c3.4xlarge")
	ch := Choice{Slots: []Slot{{Type: it, Nodes: 3}}, PredictedSeconds: 120, PredictedCost: 0.084}
	s := ch.String()
	if !strings.Contains(s, "3xc3.4xlarge") {
		t.Fatalf("String = %q", s)
	}
}

func TestEnsemblePredictorLifecycle(t *testing.T) {
	p := NewEnsemblePredictor(7)
	if p.Trained("c3.4xlarge") {
		t.Fatal("untrained predictor claims training")
	}
	if _, err := p.PredictSeconds("c3.4xlarge", 1, params()); !errors.Is(err, ErrUntrained) {
		t.Fatalf("want ErrUntrained, got %v", err)
	}

	// Build a synthetic KB from the ground-truth model.
	pm := cloud.DefaultPerfModel()
	k := kb.New()
	rng := finmath.NewRNG(99)
	it, _ := cloud.TypeByName("c3.4xlarge")
	for i := 0; i < 80; i++ {
		f := params()
		f.RepresentativeContracts = 5 + rng.Intn(60)
		f.MaxHorizon = 5 + rng.Intn(35)
		n := 1 + rng.Intn(8)
		if err := k.Add(kb.Sample{
			Architecture: it.Name, Nodes: n, Params: f,
			Seconds: pm.ExecSeconds(rng, it, n, f),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Retrain(k); err != nil {
		t.Fatal(err)
	}
	if !p.Trained(it.Name) {
		t.Fatal("predictor not trained after Retrain")
	}
	// Sanity: predictions within a factor 2 of ground truth for in-range
	// queries.
	f := params()
	f.RepresentativeContracts = 30
	f.MaxHorizon = 20
	got, err := p.PredictSeconds(it.Name, 4, f)
	if err != nil {
		t.Fatal(err)
	}
	want := pm.MeanExecSeconds(it, 4, f)
	if got < want/2 || got > want*2 {
		t.Fatalf("ensemble prediction %v vs ground truth %v", got, want)
	}
	per, err := p.PredictPerModel(it.Name, 4, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 6 {
		t.Fatalf("per-model map has %d entries", len(per))
	}
	mean := 0.0
	for _, v := range per {
		mean += v
	}
	mean /= 6
	if math.Abs(mean-got) > 1e-9 {
		t.Fatal("ensemble average inconsistent with per-model predictions")
	}
}

func TestRetrainSkipsSparseArchitectures(t *testing.T) {
	p := NewEnsemblePredictor(1)
	k := kb.New()
	rng := finmath.NewRNG(5)
	pm := cloud.DefaultPerfModel()
	it, _ := cloud.TypeByName("m4.4xlarge")
	for i := 0; i < MinSamplesToTrain-1; i++ {
		_ = k.Add(kb.Sample{
			Architecture: it.Name, Nodes: 1, Params: params(),
			Seconds: pm.ExecSeconds(rng, it, 1, params()),
		})
	}
	if err := p.Retrain(k); err != nil {
		t.Fatal(err)
	}
	if p.Trained(it.Name) {
		t.Fatal("trained below the sample threshold")
	}
}

// TestSelectConcurrentExploration hammers Select from 8 goroutines with a
// high exploration probability. finmath.RNG is not safe for concurrent use;
// the selector must serialise its epsilon-greedy draws (run under -race —
// the CI suite does — to catch an unguarded generator). Every returned
// choice must still be a valid feasible candidate.
func TestSelectConcurrentExploration(t *testing.T) {
	s, err := NewSelector(newOracle(), nil, finmath.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	c := Constraints{TmaxSeconds: 600, MaxNodes: 8, Epsilon: 0.9}
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				ch, err := s.Select(context.Background(), params(), c)
				if err != nil {
					errs <- err
					return
				}
				if ch.TotalNodes() < 1 || ch.TotalNodes() > c.MaxNodes {
					errs <- fmt.Errorf("selected %d nodes outside [1,%d]", ch.TotalNodes(), c.MaxNodes)
					return
				}
				if ch.PredictedSeconds > c.TmaxSeconds {
					errs <- fmt.Errorf("selected infeasible config: %v", ch)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
