package ml

import (
	"fmt"
	"math"

	"disarcloud/internal/finmath"
)

// MLP is a single-hidden-layer multi-layer perceptron regressor trained with
// stochastic gradient descent and momentum — the Weka MultilayerPerceptron
// configuration the paper uses (sigmoid hidden units, linear output,
// default learning rate 0.3 and momentum 0.2). Features are min-max
// normalised and the target is standardised internally.
type MLP struct {
	Hidden       int     // hidden units; 0 = (features+1)/2 + 1 (Weka's "a" heuristic)
	LearningRate float64 // 0 = 0.3
	Momentum     float64 // 0 = 0.2
	Epochs       int     // 0 = 500
	Seed         uint64

	norm       *normalizer
	w1         []float64 // hidden rows of in+1 weights, the last one the bias
	w2         []float64 // hidden weights of the output unit
	b2         float64
	tMean, tSD float64
	trained    bool
}

// NewMLP returns an MLP with Weka-like defaults rooted at seed.
func NewMLP(seed uint64) *MLP { return &MLP{Seed: seed} }

// Name implements Model.
func (m *MLP) Name() string { return "MLP" }

func (m *MLP) defaults(numFeatures int) (hidden, epochs int, lr, mom float64) {
	hidden = m.Hidden
	if hidden <= 0 {
		hidden = numFeatures/2 + 1
		if hidden < 3 {
			hidden = 3
		}
	}
	epochs = m.Epochs
	if epochs <= 0 {
		epochs = 500
	}
	lr = m.LearningRate
	if lr <= 0 {
		lr = 0.3
	}
	mom = m.Momentum
	if mom <= 0 {
		mom = 0.2
	}
	return hidden, epochs, lr, mom
}

// Train implements Model.
func (m *MLP) Train(d *Dataset) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	dim := d.NumFeatures()
	if dim == 0 {
		return fmt.Errorf("ml: MLP needs at least one feature")
	}
	hidden, epochs, lr, mom := m.defaults(dim)
	rng := finmath.NewRNG(m.Seed)
	m.norm = fitNormalizer(d)

	// Standardise the target so the linear output unit trains at O(1) scale.
	targets := d.Targets()
	m.tMean = finmath.Mean(targets)
	m.tSD = finmath.StdDev(targets)
	if m.tSD < 1e-12 {
		m.tSD = 1
	}

	// Xavier-style initialisation. w1 is hidden rows of dim weights + bias.
	stride := dim + 1
	m.w1 = make([]float64, hidden*stride)
	scale1 := 1 / math.Sqrt(float64(dim+1))
	for k := range m.w1 {
		m.w1[k] = (2*rng.Float64() - 1) * scale1
	}
	m.w2 = make([]float64, hidden)
	scale2 := 1 / math.Sqrt(float64(hidden))
	for h := range m.w2 {
		m.w2[h] = (2*rng.Float64() - 1) * scale2
	}
	m.b2 = 0

	// Pre-normalise inputs once, row-major.
	xs := make([]float64, d.Len()*dim)
	ys := make([]float64, d.Len())
	for i, in := range d.Instances {
		m.norm.applyInto(xs[i*dim:(i+1)*dim], in.Features)
		ys[i] = (in.Target - m.tMean) / m.tSD
	}

	// Momentum buffers.
	v1 := make([]float64, hidden*stride)
	v2 := make([]float64, hidden)
	vb2 := 0.0

	hiddenOut := make([]float64, hidden)
	order := make([]int, d.Len())
	for i := range order {
		order[i] = i
	}
	// Decay the learning rate across epochs (Weka's -D behaviour) for
	// stable convergence.
	w1, w2, b2 := m.w1, m.w2, m.b2
	for epoch := 0; epoch < epochs; epoch++ {
		eta := lr / (1 + float64(epoch)/float64(epochs))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			x, y := xs[i*dim:(i+1)*dim], ys[i]
			// Forward.
			pred := b2
			for h := range hiddenOut {
				w := w1[h*stride : (h+1)*stride]
				s := w[dim] // bias
				for k, xv := range x {
					s += w[k] * xv
				}
				hiddenOut[h] = sigmoid(s)
				pred += w2[h] * hiddenOut[h]
			}
			// Backward (squared error, linear output).
			errOut := pred - y
			for h := range hiddenOut {
				w, v := w1[h*stride:(h+1)*stride], v1[h*stride:(h+1)*stride]
				gradW2 := errOut * hiddenOut[h]
				v2[h] = mom*v2[h] - eta*gradW2
				deltaH := errOut * w2[h] * hiddenOut[h] * (1 - hiddenOut[h])
				w2[h] += v2[h]
				for k, xv := range x {
					g := deltaH * xv
					v[k] = mom*v[k] - eta*g
					w[k] += v[k]
				}
				v[dim] = mom*v[dim] - eta*deltaH
				w[dim] += v[dim]
			}
			vb2 = mom*vb2 - eta*errOut
			b2 += vb2
		}
	}
	m.b2 = b2
	m.trained = true
	return nil
}

// Predict implements Model.
func (m *MLP) Predict(features []float64) float64 {
	if !m.trained {
		return 0
	}
	x := m.norm.apply(features)
	dim := len(x)
	pred := m.b2
	for h, w2 := range m.w2 {
		w := m.w1[h*(dim+1) : (h+1)*(dim+1)]
		s := w[dim]
		for k, xv := range x {
			s += w[k] * xv
		}
		pred += w2 * sigmoid(s)
	}
	return pred*m.tSD + m.tMean
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

var _ Model = (*MLP)(nil)
