// Package kb implements the knowledge base of the self-optimizing loop: a
// thread-safe store of execution samples (architecture, node count,
// characteristic parameters, measured seconds) that grows with every real
// simulation and feeds the per-architecture training sets of the ML
// prediction models (Section III of the paper).
package kb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"disarcloud/internal/eeb"
	"disarcloud/internal/ml"
)

// Sample is one recorded execution of a type-B workload on a cloud deploy.
type Sample struct {
	Architecture string                   `json:"architecture"`
	Nodes        int                      `json:"nodes"`
	Params       eeb.CharacteristicParams `json:"params"`
	Seconds      float64                  `json:"seconds"`
}

// Validate reports whether the sample is well-formed.
func (s Sample) Validate() error {
	if s.Architecture == "" {
		return errors.New("kb: sample without architecture")
	}
	if s.Nodes <= 0 {
		return errors.New("kb: sample with non-positive node count")
	}
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.Seconds <= 0 {
		return errors.New("kb: sample with non-positive duration")
	}
	return nil
}

// KB is the sample store. The zero value is ready to use.
type KB struct {
	mu      sync.RWMutex
	samples []Sample
}

// New returns an empty knowledge base.
func New() *KB { return &KB{} }

// Add validates and appends a sample.
func (k *KB) Add(s Sample) error {
	if err := s.Validate(); err != nil {
		return err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.samples = append(k.samples, s)
	return nil
}

// Remove deletes the most recently added sample equal to s and reports
// whether one was found. It exists for the panic path of a deployed
// valuation: the execution-time sample of a job that subsequently crashed
// must be recorded back out of the knowledge base, or the predictors train
// on the timing of a computation that never produced a result.
func (k *KB) Remove(s Sample) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := len(k.samples) - 1; i >= 0; i-- {
		if k.samples[i] == s {
			k.samples = append(k.samples[:i], k.samples[i+1:]...)
			return true
		}
	}
	return false
}

// Merge folds remote samples into the knowledge base as a multiset
// maximum-union: for each distinct sample value, the merged store keeps
// max(local count, remote count) copies. The operation is idempotent,
// commutative and associative, so the periodic gossip exchange of a cluster
// converges every node's knowledge base to the same multiset no matter the
// sync order or how often the same batch is replayed — while genuinely
// repeated executions (same architecture, nodes, params AND seconds, which
// jittered measurements make vanishingly rare) are still counted once per
// occurrence. Invalid samples are skipped. Merge returns how many samples
// were added.
func (k *KB) Merge(remote []Sample) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	local := make(map[Sample]int, len(k.samples))
	for _, s := range k.samples {
		local[s]++
	}
	incoming := make(map[Sample]int, len(remote))
	added := 0
	for _, s := range remote {
		if s.Validate() != nil {
			continue
		}
		incoming[s]++
		if incoming[s] > local[s] {
			k.samples = append(k.samples, s)
			added++
		}
	}
	return added
}

// Len returns the number of stored samples.
func (k *KB) Len() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.samples)
}

// Samples returns a copy of all samples.
func (k *KB) Samples() []Sample {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return append([]Sample(nil), k.samples...)
}

// ByArchitecture returns the samples recorded on one instance type.
func (k *KB) ByArchitecture(name string) []Sample {
	k.mu.RLock()
	defer k.mu.RUnlock()
	var out []Sample
	for _, s := range k.samples {
		if s.Architecture == name {
			out = append(out, s)
		}
	}
	return out
}

// Architectures returns the distinct architecture names present, in first-
// seen order.
func (k *KB) Architectures() []string {
	k.mu.RLock()
	defer k.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	for _, s := range k.samples {
		if !seen[s.Architecture] {
			seen[s.Architecture] = true
			out = append(out, s.Architecture)
		}
	}
	return out
}

// FeatureNames returns the ML feature schema of Dataset rows:
// the node count followed by the characteristic parameters.
func FeatureNames() []string {
	return append([]string{"nodes"}, eeb.FeatureNames()...)
}

// Features returns the ML feature vector of a sample.
func (s Sample) Features() []float64 {
	return append([]float64{float64(s.Nodes)}, s.Params.Features()...)
}

// Count returns the number of samples recorded on one instance type.
func (k *KB) Count(name string) int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.count(name)
}

// count is Count with k.mu held.
func (k *KB) count(name string) int {
	n := 0
	for i := range k.samples {
		if k.samples[i].Architecture == name {
			n++
		}
	}
	return n
}

// Dataset builds the training set for one architecture: features are
// [nodes, contracts, horizon, assets, riskfactors, outer, inner], target is
// the measured seconds. The paper trains one model set per architecture
// ("each of the six training set"). The set is a copy, built in one pass
// under the read lock: its rows are cut from one backing array, each capped
// at its own length, and nothing of it aliases the store.
func (k *KB) Dataset(architecture string) *ml.Dataset {
	d := ml.NewDataset(FeatureNames())
	dim := len(d.Names)
	k.mu.RLock()
	defer k.mu.RUnlock()
	n := k.count(architecture)
	flat := make([]float64, n*dim)
	d.Instances = make([]ml.Instance, 0, n)
	for i := range k.samples {
		s := &k.samples[i]
		if s.Architecture != architecture {
			continue
		}
		row := flat[:dim:dim]
		flat = flat[dim:]
		row[0] = float64(s.Nodes)
		copy(row[1:], s.Params.Features())
		d.Instances = append(d.Instances, ml.Instance{Features: row, Target: s.Seconds})
	}
	return d
}

// Save writes the knowledge base as JSON.
func (k *KB) Save(w io.Writer) error {
	k.mu.RLock()
	defer k.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(k.samples)
}

// Load reads a knowledge base previously written by Save, validating every
// sample.
func Load(r io.Reader) (*KB, error) {
	var samples []Sample
	if err := json.NewDecoder(r).Decode(&samples); err != nil {
		return nil, fmt.Errorf("kb: decode: %w", err)
	}
	k := New()
	for i, s := range samples {
		if err := k.Add(s); err != nil {
			return nil, fmt.Errorf("kb: sample %d: %w", i, err)
		}
	}
	return k, nil
}

// SaveFile writes the knowledge base to a file path.
func (k *KB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("kb: %w", err)
	}
	defer f.Close()
	if err := k.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a knowledge base from a file path.
func LoadFile(path string) (*KB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kb: %w", err)
	}
	defer f.Close()
	return Load(f)
}
