package ml

import (
	"math"
	"sort"
)

// IBk is the k-nearest-neighbours instance-based learner of Aha, Kibler and
// Albert (1991) as shipped in Weka: normalised Euclidean distance over the
// feature space, k nearest stored instances, inverse-distance weighting of
// their targets.
type IBk struct {
	K int // 0 = 3
	// Weighting selects the neighbour weighting: IBkUniform or
	// IBkInverseDistance (the default).
	Weighting IBkWeighting

	norm    *normalizer
	data    []Instance // stored normalised instances
	trained bool
}

// IBkWeighting enumerates neighbour weighting schemes.
type IBkWeighting int

const (
	// IBkInverseDistance weights neighbours by 1/(distance+eps).
	IBkInverseDistance IBkWeighting = iota
	// IBkUniform averages the k neighbours unweighted.
	IBkUniform
)

// NewIBk returns an IBk learner with the default k=3 and inverse-distance
// weighting.
func NewIBk() *IBk { return &IBk{} }

// Name implements Model.
func (m *IBk) Name() string { return "IBk" }

// Train implements Model: IBk just stores the (normalised) instances.
func (m *IBk) Train(d *Dataset) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	m.norm = fitNormalizer(d)
	m.data = m.norm.applyAll(d)
	m.trained = true
	return nil
}

// Predict implements Model.
func (m *IBk) Predict(features []float64) float64 {
	if !m.trained {
		return 0
	}
	k := m.K
	if k <= 0 {
		k = 3
	}
	if k > len(m.data) {
		k = len(m.data)
	}
	x := m.norm.apply(features)
	type nd struct{ dist, target float64 }
	nds := make([]nd, len(m.data))
	for i, in := range m.data {
		nds[i] = nd{dist: euclid(x, in.Features), target: in.Target}
	}
	// A full unstable sort to read k of n, on purpose: the knowledge base is
	// tie-heavy (most samples of an architecture share one node count over a
	// few portfolios), so WHICH k of many equidistant neighbours lead the
	// slice is this sort's order. A selection algorithm would pick others and
	// move predictions — and with them suite_fingerprint.json.
	sort.Slice(nds, func(i, j int) bool { return nds[i].dist < nds[j].dist })

	const eps = 1e-9
	var wSum, tSum float64
	for _, n := range nds[:k] {
		w := 1.0
		if m.Weighting == IBkInverseDistance {
			w = 1 / (n.dist + eps)
		}
		wSum += w
		tSum += w * n.target
	}
	return tSum / wSum
}

func euclid(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

var _ Model = (*IBk)(nil)
