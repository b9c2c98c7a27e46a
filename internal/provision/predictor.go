// Package provision implements the ML-based deploy selection of Section III
// of the paper: a family of per-architecture prediction models p_x(m, n, f)
// built from the knowledge base, the ensemble averaging that damps
// individual-model errors, and Algorithm 1 — enumerate every candidate
// configuration, discard those whose predicted time exceeds Tmax, choose the
// cheapest, and with probability epsilon explore a random feasible one.
package provision

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"disarcloud/internal/eeb"
	"disarcloud/internal/kb"
	"disarcloud/internal/ml"
)

// ErrUntrained is returned when a prediction is requested for an
// architecture with no trained models (knowledge base too small) — the
// caller should fall back to the manual early-training mode the paper
// describes.
var ErrUntrained = errors.New("provision: no trained model for architecture")

// MinSamplesToTrain is the minimum number of knowledge-base samples an
// architecture needs before its model suite is trained.
const MinSamplesToTrain = 12

// Predictor estimates execution seconds of a workload on a deploy
// configuration.
type Predictor interface {
	// PredictSeconds returns the expected execution time of workload f on
	// nodes VMs of the named architecture. It returns ErrUntrained when the
	// architecture has no usable models yet.
	PredictSeconds(architecture string, nodes int, f eeb.CharacteristicParams) (float64, error)
}

// EnsemblePredictor is the paper's predictor: per architecture, the suite of
// six Weka-style learners trained on that architecture's slice of the
// knowledge base; predictions are the across-model average. Retrain after
// every recorded execution implements the self-optimizing loop.
//
// Training is split in two so it can run outside its caller's locks:
// Snapshot copies an architecture's dataset and stamps it with a
// generation number, Train fits a suite on the copy and installs it only if
// no newer generation of that architecture has been installed (or dropped)
// meanwhile. Suites may therefore finish training in any order; the one in
// place is always the one trained on the most recent snapshot.
type EnsemblePredictor struct {
	seed uint64

	mu        sync.RWMutex
	suites    map[string][]ml.Model
	issued    uint64            // last generation handed out
	installed map[string]uint64 // per architecture: generation of its suite or Drop
}

// NewEnsemblePredictor returns an untrained predictor rooted at seed.
func NewEnsemblePredictor(seed uint64) *EnsemblePredictor {
	return &EnsemblePredictor{
		seed:      seed,
		suites:    make(map[string][]ml.Model),
		installed: make(map[string]uint64),
	}
}

// Snapshot is one architecture's training set as it stood at a generation.
type Snapshot struct {
	arch string
	gen  uint64
	data *ml.Dataset
}

// Snapshot copies the named architectures' datasets out of the knowledge
// base, each stamped with a fresh generation; reading and stamping are one
// atomic step, so a later generation never holds an earlier state of the
// knowledge base. Architectures below MinSamplesToTrain are left out:
// retraining them is a no-op.
func (p *EnsemblePredictor) Snapshot(k *kb.KB, archs ...string) []Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Snapshot
	for _, arch := range archs {
		ds := k.Dataset(arch)
		if ds.Len() < MinSamplesToTrain {
			continue
		}
		p.issued++
		out = append(out, Snapshot{arch: arch, gen: p.issued, data: ds})
	}
	return out
}

// Generations returns how many generations have been handed out so far, by
// Snapshot and Drop together: the number of learn steps taken.
func (p *EnsemblePredictor) Generations() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.issued
}

// Train fits a fresh suite on every snapshot, the snapshots concurrently
// and each suite's learners concurrently, and installs each suite unless a
// newer generation of its architecture is already in place. When it
// returns nil, every snapshot's generation or a newer one is installed.
func (p *EnsemblePredictor) Train(snaps []Snapshot) error {
	errs := make([]error, len(snaps))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0)) // semaphore
	var wg sync.WaitGroup
	for i, s := range snaps {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			errs[i] = p.train(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *EnsemblePredictor) train(s Snapshot) error {
	p.mu.RLock()
	superseded := p.installed[s.arch] > s.gen
	p.mu.RUnlock()
	if superseded {
		return nil
	}
	suite := ml.NewSuite(p.seed)
	if err := ml.TrainAll(suite, s.data); err != nil {
		return fmt.Errorf("provision: training on %s: %w", s.arch, err)
	}
	p.mu.Lock()
	if p.installed[s.arch] < s.gen {
		p.suites[s.arch] = suite
		p.installed[s.arch] = s.gen
	}
	p.mu.Unlock()
	return nil
}

// Retrain rebuilds the model suites of every architecture that has at least
// MinSamplesToTrain samples in the knowledge base. Architectures below the
// threshold keep (or stay without) their previous models.
func (p *EnsemblePredictor) Retrain(k *kb.KB) error {
	return p.Train(p.Snapshot(k, k.Architectures()...))
}

// RetrainArchitecture rebuilds the suite of one architecture — the
// incremental step of the self-optimizing loop after a run on that
// architecture. Below the sample threshold it is a no-op.
func (p *EnsemblePredictor) RetrainArchitecture(k *kb.KB, arch string) error {
	return p.Train(p.Snapshot(k, arch))
}

// Drop discards the architecture's model suite, returning it to the
// untrained state. Used when knowledge-base samples are retracted (e.g. a
// panicked run) and the remainder falls below the training threshold — a
// stale suite trained on retracted data must not keep predicting. Drop
// takes a generation of its own, so a suite still training on an earlier
// snapshot is discarded when it finishes instead of resurrecting the
// architecture.
func (p *EnsemblePredictor) Drop(architecture string) {
	p.mu.Lock()
	p.issued++
	p.installed[architecture] = p.issued
	delete(p.suites, architecture)
	p.mu.Unlock()
}

// Trained reports whether the architecture has a usable model suite.
func (p *EnsemblePredictor) Trained(architecture string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.suites[architecture]) > 0
}

// PredictSeconds implements Predictor with the ensemble average, summed in
// suite order.
func (p *EnsemblePredictor) PredictSeconds(architecture string, nodes int, f eeb.CharacteristicParams) (float64, error) {
	suite, err := p.suite(architecture)
	if err != nil {
		return 0, err
	}
	features := kb.Sample{Nodes: nodes, Params: f}.Features()
	sum := 0.0
	for _, m := range suite {
		sum += clipSeconds(m.Predict(features))
	}
	return sum / float64(len(suite)), nil
}

// PredictPerModel returns each learner's individual prediction, keyed by
// learner name — the quantities behind Table I and Figure 2.
func (p *EnsemblePredictor) PredictPerModel(architecture string, nodes int, f eeb.CharacteristicParams) (map[string]float64, error) {
	suite, err := p.suite(architecture)
	if err != nil {
		return nil, err
	}
	features := kb.Sample{Nodes: nodes, Params: f}.Features()
	out := make(map[string]float64, len(suite))
	for _, m := range suite {
		out[m.Name()] = clipSeconds(m.Predict(features))
	}
	return out, nil
}

func (p *EnsemblePredictor) suite(architecture string) ([]ml.Model, error) {
	p.mu.RLock()
	suite := p.suites[architecture]
	p.mu.RUnlock()
	if len(suite) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrUntrained, architecture)
	}
	return suite, nil
}

// clipSeconds bounds a learner's prediction away from zero: execution times
// are, and a pathological extrapolation must not say otherwise.
func clipSeconds(pred float64) float64 {
	if pred < 1 {
		return 1
	}
	return pred
}

var _ Predictor = (*EnsemblePredictor)(nil)
