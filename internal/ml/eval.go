package ml

import (
	"fmt"
	"math"

	"disarcloud/internal/finmath"
)

// Evaluation summarises a model's performance on a test set.
type Evaluation struct {
	MAE  float64 // mean absolute error
	RMSE float64 // root mean squared error
	// SignedMeanError is the paper's delta-bar (Eq. 6): mean of
	// (predicted - real); negative values mean underestimation.
	SignedMeanError float64
	// R2 is the coefficient of determination.
	R2 float64
	// Predictions and Actuals hold the raw pairs for plotting (Figures 2-3).
	Predictions []float64
	Actuals     []float64
}

// Evaluate runs the trained model over the test set.
func Evaluate(m Model, test *Dataset) (*Evaluation, error) {
	if test.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	ev := &Evaluation{
		Predictions: make([]float64, test.Len()),
		Actuals:     make([]float64, test.Len()),
	}
	var sumAbs, sumSq float64
	for i, in := range test.Instances {
		p := m.Predict(in.Features)
		ev.Predictions[i] = p
		ev.Actuals[i] = in.Target
		d := p - in.Target
		sumAbs += math.Abs(d)
		sumSq += d * d
	}
	n := float64(test.Len())
	ev.MAE = sumAbs / n
	ev.RMSE = math.Sqrt(sumSq / n)
	ev.SignedMeanError = finmath.MeanSigned(ev.Predictions, ev.Actuals)
	meanY := finmath.Mean(ev.Actuals)
	var ssTot float64
	for _, y := range ev.Actuals {
		ssTot += (y - meanY) * (y - meanY)
	}
	if ssTot > 0 {
		ev.R2 = 1 - sumSq/ssTot
	}
	return ev, nil
}

// CrossValidate performs k-fold cross validation, returning the fold
// evaluations. build must return a fresh untrained model per fold.
func CrossValidate(build func() Model, d *Dataset, k int, rng *finmath.RNG) ([]*Evaluation, error) {
	if k < 2 || k > d.Len() {
		return nil, fmt.Errorf("ml: %d folds for %d instances", k, d.Len())
	}
	perm := rng.Perm(d.Len())
	evals := make([]*Evaluation, 0, k)
	for fold := 0; fold < k; fold++ {
		train := NewDataset(d.Names)
		test := NewDataset(d.Names)
		for i, idx := range perm {
			if i%k == fold {
				test.Instances = append(test.Instances, d.Instances[idx])
			} else {
				train.Instances = append(train.Instances, d.Instances[idx])
			}
		}
		m := build()
		if err := m.Train(train); err != nil {
			return nil, fmt.Errorf("ml: fold %d: %w", fold, err)
		}
		ev, err := Evaluate(m, test)
		if err != nil {
			return nil, err
		}
		evals = append(evals, ev)
	}
	return evals, nil
}

// Ensemble averages the predictions of its member models — the paper's
// strategy for damping individual-model errors ("we compute a final value
// time ... as the average of all the times predicted by the models").
type Ensemble struct {
	Models []Model
}

// Name implements Model.
func (e *Ensemble) Name() string { return "Ensemble" }

// Train fits every member on the same dataset, concurrently.
func (e *Ensemble) Train(d *Dataset) error {
	if len(e.Models) == 0 {
		return fmt.Errorf("ml: empty ensemble")
	}
	if err := TrainAll(e.Models, d); err != nil {
		return fmt.Errorf("ml: ensemble member %w", err)
	}
	return nil
}

// Predict returns the member average.
func (e *Ensemble) Predict(features []float64) float64 {
	sum := 0.0
	for _, m := range e.Models {
		sum += m.Predict(features)
	}
	return sum / float64(len(e.Models))
}

var _ Model = (*Ensemble)(nil)
