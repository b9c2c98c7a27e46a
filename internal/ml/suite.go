package ml

import (
	"fmt"
	"sync"
)

// NewSuite returns fresh untrained instances of the six learners the paper
// selects (Section III): MLP, Random Tree, Random Forest, IBk, KStar and
// Decision Table, each rooted at a distinct stream of the given seed.
func NewSuite(seed uint64) []Model {
	return []Model{
		NewMLP(seed),
		NewRandomTree(seed + 1),
		NewRandomForest(seed + 2),
		NewIBk(),
		NewKStar(),
		NewDecisionTable(),
	}
}

// SuiteNames returns the learner names in the order produced by NewSuite.
func SuiteNames() []string {
	return []string{"MLP", "RT", "RF", "IBk", "KStar", "DT"}
}

// NewEnsemble returns the paper's averaging ensemble over a fresh suite.
func NewEnsemble(seed uint64) *Ensemble {
	return &Ensemble{Models: NewSuite(seed)}
}

// TrainAll fits every model on the same dataset, one goroutine per model.
// The models share nothing but the dataset, which training only reads, so
// each one's trained bits are what a sequential loop would produce. The
// error returned is the first in model order, prefixed with that model's
// name.
func TrainAll(models []Model, d *Dataset) error {
	errs := make([]error, len(models))
	var wg sync.WaitGroup
	for i, m := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.Train(d)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", models[i].Name(), err)
		}
	}
	return nil
}
