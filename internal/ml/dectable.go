package ml

import (
	"fmt"
	"math"
	"sort"

	"disarcloud/internal/finmath"
)

// DecisionTable is the Decision Table Majority learner (Kohavi 1995) as in
// Weka: a lookup table over a selected feature subset, with the subset
// chosen by forward best-first search driven by leave-one-out
// cross-validation. Numeric features are discretised into equal-frequency
// bins; cells predict the mean target of their training instances, and
// unmatched cells fall back to the global mean (Weka's non-IBk fallback).
type DecisionTable struct {
	Bins int // equal-frequency bins per feature; 0 = 8
	// MaxStale stops the search after this many non-improving expansions
	// (Weka's best-first patience); 0 = 5.
	MaxStale int

	selected   []int
	edges      [][]float64 // per original feature: bin upper edges
	bins       uint64      // resolved Bins: the radix of the cell keys
	table      map[uint64]float64
	globalMean float64
	trained    bool
}

// NewDecisionTable returns a decision table with Weka-like defaults.
func NewDecisionTable() *DecisionTable { return &DecisionTable{} }

// Name implements Model.
func (m *DecisionTable) Name() string { return "DT" }

// Train implements Model.
func (m *DecisionTable) Train(d *Dataset) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	bins := m.Bins
	if bins <= 0 {
		bins = 8
	}
	maxStale := m.MaxStale
	if maxStale <= 0 {
		maxStale = 5
	}
	dim := d.NumFeatures()
	// A cell is keyed by its bin codes packed as the digits of a base-bins
	// number; the widest subset must fit 64 bits.
	if float64(dim)*math.Log2(float64(bins)) > 64 {
		return fmt.Errorf("ml: decision table over %d features x %d bins exceeds the 64-bit cell key", dim, bins)
	}
	m.bins = uint64(bins)
	m.globalMean = finmath.Mean(d.Targets())

	// Equal-frequency bin edges per feature.
	m.edges = make([][]float64, dim)
	vals := make([]float64, d.Len())
	for f := 0; f < dim; f++ {
		for i, in := range d.Instances {
			vals[i] = in.Features[f]
		}
		sort.Float64s(vals)
		edges := make([]float64, 0, bins-1)
		for b := 1; b < bins; b++ {
			edges = append(edges, finmath.QuantileSorted(vals, float64(b)/float64(bins)))
		}
		m.edges[f] = edges
	}

	// Pre-discretise all instances once (row-major, dim codes per instance).
	s := &tableSearch{
		d:      d,
		dim:    dim,
		bins:   m.bins,
		coded:  make([]uint64, d.Len()*dim),
		keys:   make([]uint64, d.Len()),
		sums:   make(map[uint64]float64),
		counts: make(map[uint64]int),
	}
	for i, in := range d.Instances {
		for f := 0; f < dim; f++ {
			s.coded[i*dim+f] = uint64(m.binOf(f, in.Features[f]))
		}
	}
	for _, in := range d.Instances {
		s.totalSum += in.Target
	}

	// Greedy forward best-first search on LOO-CV mean absolute error.
	selected := make([]int, 0, dim)
	bestScore := s.looScore(selected)
	stale := 0
	inSet := make([]bool, dim)
	for stale < maxStale {
		bestFeat := -1
		bestFeatScore := bestScore
		for f := 0; f < dim; f++ {
			if inSet[f] {
				continue
			}
			score := s.looScore(append(selected, f))
			if score < bestFeatScore {
				bestFeat, bestFeatScore = f, score
			}
		}
		if bestFeat < 0 {
			stale++
			// No single addition improves; with a pure greedy expansion
			// there is nothing else to try.
			break
		}
		selected = append(selected, bestFeat)
		inSet[bestFeat] = true
		bestScore = bestFeatScore
		stale = 0
	}
	m.selected = selected

	// Final table over the chosen subset.
	s.tabulate(selected)
	m.table = make(map[uint64]float64, len(s.sums))
	for k, sum := range s.sums {
		m.table[k] = sum / float64(s.counts[k])
	}
	m.trained = true
	return nil
}

// tableSearch is the state the subset search reuses across its leave-one-out
// evaluations: the discretised instances and the per-cell accumulators.
type tableSearch struct {
	d        *Dataset
	dim      int
	bins     uint64 // radix of the cell keys
	coded    []uint64
	totalSum float64
	keys     []uint64
	sums     map[uint64]float64
	counts   map[uint64]int
}

// tabulate fills keys, sums and counts for the table induced by subset.
func (s *tableSearch) tabulate(subset []int) {
	clear(s.sums)
	clear(s.counts)
	for i, in := range s.d.Instances {
		k := cellKey(s.bins, s.coded[i*s.dim:(i+1)*s.dim], subset)
		s.keys[i] = k
		s.sums[k] += in.Target
		s.counts[k]++
	}
}

// looScore returns the leave-one-out MAE of the table induced by the given
// feature subset.
func (s *tableSearch) looScore(subset []int) float64 {
	s.tabulate(subset)
	n := s.d.Len()
	mae := 0.0
	for i, in := range s.d.Instances {
		k := s.keys[i]
		var pred float64
		if c := s.counts[k]; c > 1 {
			pred = (s.sums[k] - in.Target) / float64(c-1)
		} else if n > 1 {
			pred = (s.totalSum - in.Target) / float64(n-1)
		} else {
			pred = in.Target
		}
		diff := pred - in.Target
		if diff < 0 {
			diff = -diff
		}
		mae += diff
	}
	return mae / float64(n)
}

func (m *DecisionTable) binOf(feature int, v float64) int {
	edges := m.edges[feature]
	// Binary search over the (small) sorted edge list.
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// cellKey packs the subset's bin codes as the digits of a base-bins number.
func cellKey(bins uint64, codes []uint64, subset []int) uint64 {
	var k uint64
	for _, f := range subset {
		k = k*bins + codes[f]
	}
	return k
}

// Predict implements Model.
func (m *DecisionTable) Predict(features []float64) float64 {
	if !m.trained {
		return 0
	}
	var k uint64
	for _, f := range m.selected {
		k = k*m.bins + uint64(m.binOf(f, features[f]))
	}
	if v, ok := m.table[k]; ok {
		return v
	}
	return m.globalMean
}

// SelectedFeatures returns the indices chosen by the search (for tests and
// diagnostics).
func (m *DecisionTable) SelectedFeatures() []int {
	return append([]int(nil), m.selected...)
}

var _ Model = (*DecisionTable)(nil)
