package ml

import (
	"math"
	"slices"
)

// KStar is the K* instance-based learner (Cleary & Trigg 1995) used by the
// paper via Weka. K* weights every stored instance by an entropic
// transformation probability; for continuous attributes this reduces to an
// exponential kernel over distance whose bandwidth is chosen per query so
// that the "effective number of neighbours" matches the blend parameter —
// the adaptive-bandwidth behaviour that distinguishes K* from plain kNN.
//
// This implementation keeps that structure: weights w_i = exp(-d_i/s) with s
// solved per query (by bisection) so that the effective sample size
// (sum w)^2 / (sum w^2) equals Blend*N, then predicts the weighted target
// mean.
type KStar struct {
	// Blend in (0, 1] is Weka's global blend setting (default 0.20).
	Blend float64

	norm    *normalizer
	data    []Instance
	trained bool
}

// NewKStar returns a K* learner with the default 20% blend.
func NewKStar() *KStar { return &KStar{} }

// Name implements Model.
func (m *KStar) Name() string { return "KStar" }

// Train implements Model: instance-based, so training stores the data.
func (m *KStar) Train(d *Dataset) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	m.norm = fitNormalizer(d)
	m.data = m.norm.applyAll(d)
	m.trained = true
	return nil
}

// Predict implements Model.
func (m *KStar) Predict(features []float64) float64 {
	if !m.trained {
		return 0
	}
	blend := m.Blend
	if blend <= 0 || blend > 1 {
		blend = 0.20
	}
	x := m.norm.apply(features)
	dists := make([]float64, len(m.data))
	for i, in := range m.data {
		dists[i] = euclid(x, in.Features)
	}

	// Exact match short-circuit: average the coincident targets.
	if exact := m.exactMatches(dists); exact != 0 {
		sum, cnt := 0.0, 0
		for i, d := range dists {
			if d == 0 {
				sum += m.data[i].Target
				cnt++
			}
		}
		if cnt > 0 {
			return sum / float64(cnt)
		}
	}

	target := blend * float64(len(m.data))
	if target < 1 {
		target = 1
	}
	s := m.solveBandwidth(dists, target)
	var wSum, tSum float64
	for i, d := range dists {
		w := math.Exp(-d / s)
		wSum += w
		tSum += w * m.data[i].Target
	}
	if wSum == 0 {
		// Degenerate bandwidth: fall back to the nearest neighbour.
		best := 0
		for i, d := range dists {
			if d < dists[best] {
				best = i
			}
		}
		return m.data[best].Target
	}
	return tSum / wSum
}

func (m *KStar) exactMatches(dists []float64) int {
	n := 0
	for _, d := range dists {
		if d == 0 {
			n++
		}
	}
	return n
}

// solveBandwidth finds s such that the effective sample size of the
// exponential weights equals target, by bisection over a bracket derived
// from the distance distribution.
func (m *KStar) solveBandwidth(dists []float64, target float64) float64 {
	// Bracket: tiny bandwidth (ESS -> count of nearest points) to huge
	// bandwidth (ESS -> N). Only the nearest and the farthest distance are
	// read, so a scan replaces the sorted copy this used to take; the two
	// agree bit for bit on NaN-free distances, which is what validated
	// samples (kb.Sample.Validate: finite positive features) give.
	lo := slices.Min(dists)/10 + 1e-12
	hi := slices.Max(dists)*10 + 1e-6

	ess := func(s float64) float64 {
		var sum, sumSq float64
		for _, d := range dists {
			w := math.Exp(-d / s)
			sum += w
			sumSq += w * w
		}
		if sumSq == 0 {
			return 0
		}
		return sum * sum / sumSq
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if ess(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

var _ Model = (*KStar)(nil)
