// Package ml is a from-scratch regression library implementing the six
// learners the paper selects from Weka (Section III): Multi-Layer
// Perceptron, Random Tree, Random Forest, IBk (k-nearest neighbours), KStar
// and Decision Table, together with a shared dataset abstraction,
// evaluation metrics and the prediction-averaging ensemble the deploy
// selector uses. All learners are deterministic given their seeds.
package ml

import (
	"errors"
	"fmt"

	"disarcloud/internal/finmath"
)

// Instance is one labelled example: a feature vector and its numeric target
// (an execution time in seconds, in the provisioning application).
type Instance struct {
	Features []float64
	Target   float64
}

// Dataset is an ordered collection of instances sharing a feature schema.
type Dataset struct {
	Names     []string // feature names, informational
	Instances []Instance
}

// NewDataset builds an empty dataset with the given feature names.
func NewDataset(names []string) *Dataset {
	return &Dataset{Names: append([]string(nil), names...)}
}

// Add appends an instance, copying the feature slice so callers can reuse
// their buffers.
func (d *Dataset) Add(features []float64, target float64) error {
	if len(d.Names) > 0 && len(features) != len(d.Names) {
		return fmt.Errorf("ml: instance has %d features, schema has %d", len(features), len(d.Names))
	}
	if len(d.Instances) > 0 && len(features) != len(d.Instances[0].Features) {
		return fmt.Errorf("ml: instance has %d features, dataset has %d", len(features), len(d.Instances[0].Features))
	}
	d.Instances = append(d.Instances, Instance{
		Features: append([]float64(nil), features...),
		Target:   target,
	})
	return nil
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.Instances) }

// NumFeatures returns the feature dimensionality (0 for an empty dataset
// without a schema).
func (d *Dataset) NumFeatures() int {
	if len(d.Instances) > 0 {
		return len(d.Instances[0].Features)
	}
	return len(d.Names)
}

// Targets returns a copy of all target values.
func (d *Dataset) Targets() []float64 {
	out := make([]float64, d.Len())
	for i, in := range d.Instances {
		out[i] = in.Target
	}
	return out
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	c := NewDataset(d.Names)
	c.Instances = make([]Instance, d.Len())
	for i, in := range d.Instances {
		c.Instances[i] = Instance{
			Features: append([]float64(nil), in.Features...),
			Target:   in.Target,
		}
	}
	return c
}

// Split shuffles (with rng) and partitions the dataset into a training set
// holding trainFrac of the instances and a test set with the remainder —
// the paper's "40%-60% splitting percentage" uses trainFrac = 0.4. It
// panics if trainFrac is outside (0, 1).
func (d *Dataset) Split(rng *finmath.RNG, trainFrac float64) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic("ml: train fraction outside (0,1)")
	}
	perm := rng.Perm(d.Len())
	nTrain := int(float64(d.Len()) * trainFrac)
	train = NewDataset(d.Names)
	test = NewDataset(d.Names)
	for i, idx := range perm {
		in := d.Instances[idx]
		if i < nTrain {
			train.Instances = append(train.Instances, in)
		} else {
			test.Instances = append(test.Instances, in)
		}
	}
	return train, test
}

// Model is a trainable regression model. Train must be called before
// Predict; implementations return an error on degenerate input rather than
// panicking.
type Model interface {
	// Name identifies the algorithm (e.g. "RF").
	Name() string
	// Train fits the model to the dataset.
	Train(d *Dataset) error
	// Predict returns the estimated target for one feature vector.
	Predict(features []float64) float64
}

// ErrEmptyDataset is returned by Train on datasets without instances.
var ErrEmptyDataset = errors.New("ml: empty training set")

// normalizer rescales features to [0, 1] per dimension — the shared
// preprocessing of the distance-based learners (IBk, KStar) and the MLP.
type normalizer struct {
	min, span []float64
}

func fitNormalizer(d *Dataset) *normalizer {
	dim := d.NumFeatures()
	n := &normalizer{min: make([]float64, dim), span: make([]float64, dim)}
	for k := 0; k < dim; k++ {
		lo, hi := d.Instances[0].Features[k], d.Instances[0].Features[k]
		for _, in := range d.Instances[1:] {
			v := in.Features[k]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		n.min[k] = lo
		n.span[k] = hi - lo
		if n.span[k] == 0 {
			n.span[k] = 1 // constant feature maps to 0
		}
	}
	return n
}

func (n *normalizer) apply(features []float64) []float64 {
	out := make([]float64, len(features))
	n.applyInto(out, features)
	return out
}

func (n *normalizer) applyInto(out, features []float64) {
	for k, v := range features {
		out[k] = (v - n.min[k]) / n.span[k]
	}
}

// applyAll returns the dataset's instances rescaled, their feature vectors
// cut from one backing array — what the instance-based learners store.
func (n *normalizer) applyAll(d *Dataset) []Instance {
	dim := d.NumFeatures()
	flat := make([]float64, d.Len()*dim)
	out := make([]Instance, d.Len())
	for i, in := range d.Instances {
		x := flat[i*dim : (i+1)*dim : (i+1)*dim]
		n.applyInto(x, in.Features)
		out[i] = Instance{Features: x, Target: in.Target}
	}
	return out
}
