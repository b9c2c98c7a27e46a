package ml

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"disarcloud/internal/finmath"
)

// RandomForest is a bagged ensemble of RandomTrees (Breiman 2001, the
// paper's "RF"): each tree trains on a bootstrap resample of the data with
// a random feature subset per split, and predictions are averaged.
type RandomForest struct {
	Trees   int // 0 = 60
	K       int // per-split feature subset, passed to the trees
	MinLeaf int
	Seed    uint64

	members []*RandomTree
	trained bool
}

// NewRandomForest returns a forest with defaults rooted at seed.
func NewRandomForest(seed uint64) *RandomForest { return &RandomForest{Seed: seed} }

// Name implements Model.
func (f *RandomForest) Name() string { return "RF" }

// Train implements Model. Every bootstrap index and tree seed is drawn from
// the forest's one stream, in tree order, before any tree grows; the trees
// are then independent and grow on GOMAXPROCS goroutines, so the trained
// bits do not depend on the worker count or the schedule.
func (f *RandomForest) Train(d *Dataset) error {
	n := d.Len()
	if n == 0 {
		return ErrEmptyDataset
	}
	nTrees := f.Trees
	if nTrees <= 0 {
		nTrees = 60
	}
	rng := finmath.NewRNG(f.Seed)
	boots := make([]int, nTrees*n)
	f.members = make([]*RandomTree, nTrees)
	for t := range f.members {
		for i := t * n; i < (t+1)*n; i++ {
			boots[i] = rng.Intn(n)
		}
		f.members[t] = &RandomTree{K: f.K, MinLeaf: f.MinLeaf, Seed: rng.Uint64()}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), nTrees); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch treeScratch
			for t := int(next.Add(1)) - 1; t < nTrees; t = int(next.Add(1)) - 1 {
				f.members[t].trainOn(d, boots[t*n:(t+1)*n], &scratch)
			}
		}()
	}
	wg.Wait()
	f.trained = true
	return nil
}

// Predict implements Model.
func (f *RandomForest) Predict(features []float64) float64 {
	mean, _ := f.PredictWithSpread(features)
	return mean
}

// PredictWithSpread returns the tree-mean prediction together with the
// population standard deviation of the per-tree predictions — the ensemble
// disagreement that serves as a per-prediction uncertainty signal (wide
// spread means the trees extrapolate differently, so the mean is less
// trustworthy). An untrained forest returns (0, 0).
func (f *RandomForest) PredictWithSpread(features []float64) (mean, spread float64) {
	if !f.trained {
		return 0, 0
	}
	n := float64(len(f.members))
	sum, sumSq := 0.0, 0.0
	for _, t := range f.members {
		p := t.Predict(features)
		sum += p
		sumSq += p * p
	}
	mean = sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard the one-pass formula against rounding
	}
	return mean, math.Sqrt(variance)
}

var _ Model = (*RandomForest)(nil)
