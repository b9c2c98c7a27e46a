package rl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"disarcloud/internal/elastic"
	"disarcloud/internal/ml"
)

// TableVersion is the serialized artifact format this package writes and
// accepts. Bump it on any change to the state encoding, the action
// semantics or the JSON layout — a learned policy is its decision function,
// and silently reinterpreting an old table would ship a different policy
// than the one that was verified.
const TableVersion = 1

// maxTableBytes bounds a serialized artifact: the shipped table is a few
// tens of kilobytes, so anything near the cap is not a Q-table.
const maxTableBytes = 8 << 20

// Table is a trained policy: the spec that fixes its decision function and
// the learned action values, Q[state][action]. The greedy policy it induces
// is pure — Step is a function of (elastic.State, elastic.Obs) only, using
// the state's cooldown counters and PrevRate — which is what lets training,
// live serving and the verifier's exhaustive enumeration all run the
// identical decision logic.
type Table struct {
	Version int         `json:"version"`
	Spec    Spec        `json:"spec"`
	Q       [][]float64 `json:"q"`
}

// NewTable allocates a zero-valued table for the spec.
func NewTable(spec Spec) (*Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	q := make([][]float64, spec.NumStates())
	for i := range q {
		q[i] = make([]float64, spec.NumActions())
	}
	return &Table{Version: TableVersion, Spec: spec, Q: q}, nil
}

// Validate reports whether the table is well-formed: a valid spec, matching
// Q dimensions, finite values.
func (t *Table) Validate() error {
	if t == nil {
		return errors.New("rl: nil table")
	}
	if t.Version != TableVersion {
		return fmt.Errorf("rl: table version %d, this build reads version %d", t.Version, TableVersion)
	}
	if err := t.Spec.Validate(); err != nil {
		return err
	}
	if len(t.Q) != t.Spec.NumStates() {
		return fmt.Errorf("rl: table has %d states, spec needs %d", len(t.Q), t.Spec.NumStates())
	}
	for i, row := range t.Q {
		if len(row) != t.Spec.NumActions() {
			return fmt.Errorf("rl: state %d has %d actions, spec needs %d", i, len(row), t.Spec.NumActions())
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("rl: state %d holds a non-finite action value", i)
			}
		}
	}
	return nil
}

// Name implements elastic.Policy.
func (t *Table) Name() string { return "learned" }

// cooldowns are the spec's rate limits as the shared counters.
func (t *Table) cooldowns() elastic.Cooldowns {
	return elastic.Cooldowns{Up: int64(t.Spec.GrowCooldownTicks), Down: int64(t.Spec.ShrinkCooldownTicks)}
}

// Init implements elastic.Policy: both cooldowns read as long expired and
// there is no previous rate observation.
func (t *Table) Init() elastic.State { return t.cooldowns().Init() }

// rateBucket discretizes an arrival rate.
func (t *Table) rateBucket(rate float64) int64 {
	if math.IsNaN(rate) || rate < 0 {
		rate = 0
	}
	return int64(bucket(rate, t.Spec.RateCuts))
}

// StateIndex maps (state, observation) to the Q-table row: queue-pressure
// bucket x rate bucket x forecast-slope bucket x pool-size bucket. The
// absolute rate bucket is what lets the policy learn a per-load staffing
// level (the hybrid planner's edge) instead of only reacting to pressure.
// The cooldown counters deliberately stay out of the index — they gate
// which actions can act, not which state the agent is in, and keeping them
// out keeps the table small enough for tabular learning to converge in
// seconds.
func (t *Table) StateIndex(st elastic.State, obs elastic.Obs) int {
	w := obs.Workers
	qb := bucket(obs.Pressure(), t.Spec.PressureCuts)

	cur := t.rateBucket(obs.RatePerTick)
	sb := 1 // flat, also the first-ever observation
	if st.PrevRate > 0 {
		switch prev := st.PrevRate - 1; {
		case cur < prev:
			sb = 0
		case cur > prev:
			sb = 2
		}
	}

	span := t.Spec.MaxWorkers - t.Spec.MinWorkers + 1
	wb := (w - t.Spec.MinWorkers) * t.Spec.PoolBuckets / span
	if wb < 0 {
		wb = 0
	} else if wb >= t.Spec.PoolBuckets {
		wb = t.Spec.PoolBuckets - 1
	}

	rb := int(cur)
	return ((qb*(len(t.Spec.RateCuts)+1)+rb)*3+sb)*t.Spec.PoolBuckets + wb
}

// Apply executes one chosen action and advances the internal counters. It
// is the shared tail of the greedy Step and the trainer's exploratory step:
// bounds enforcement is immediate and stamps no cooldowns; a positive step
// grows by up to that step, gated by the grow cooldown; a negative step
// releases exactly one worker, gated by the shrink cooldown; everything
// else holds. Reasons: "learned-grow", "learned-shrink", "learned-floor",
// "learned-ceiling".
func (t *Table) Apply(st elastic.State, obs elastic.Obs, action int) (elastic.State, int, string) {
	s, cd := t.Spec, t.cooldowns()
	w := obs.Workers
	target, reason := w, ""
	switch step := s.Steps[action]; {
	case w < s.MinWorkers:
		target, reason = s.MinWorkers, "learned-floor"
	case w > s.MaxWorkers:
		target, reason = s.MaxWorkers, "learned-ceiling"
	case step > 0 && w < s.MaxWorkers && cd.GrowReady(st):
		target, reason = min(w+step, s.MaxWorkers), "learned-grow"
		st.SinceUp = 0
	case step < 0 && w > s.MinWorkers && cd.ShrinkReady(st):
		target, reason = w-1, "learned-shrink"
		st.SinceDown = 0
	}
	st = cd.Tick(st)
	st.PrevRate = t.rateBucket(obs.RatePerTick) + 1
	return st, target, reason
}

// Step implements elastic.Policy with the greedy policy: pick the learned
// best action for the discretized state (deterministic lowest-index
// tie-break) and apply it.
func (t *Table) Step(st elastic.State, obs elastic.Obs) (elastic.State, int, string) {
	return t.Apply(st, obs, ml.Argmax(t.Q[t.StateIndex(st, obs)]))
}

// Params reports the policy's hyperparameters for status surfaces
// (AutoscalerStatus, GET /v1/autoscaler).
func (t *Table) Params() map[string]float64 {
	s := t.Spec
	gamma := s.Gamma
	if s.Bandit {
		gamma = 0
	}
	return map[string]float64{
		"version":      float64(t.Version),
		"states":       float64(s.NumStates()),
		"actions":      float64(s.NumActions()),
		"min_workers":  float64(s.MinWorkers),
		"max_workers":  float64(s.MaxWorkers),
		"alpha":        s.Alpha,
		"gamma":        gamma,
		"epsilon":      s.Epsilon,
		"episodes":     float64(s.Episodes),
		"sla_weight":   s.SLAWeight,
		"cost_weight":  s.CostWeight,
		"churn_weight": s.ChurnWeight,
	}
}

// Encode serializes the table. encoding/json writes struct fields and
// slices in declaration order with a deterministic float encoding, so two
// identical trainings produce byte-identical artifacts — the determinism
// contract the freshness test and the experiments lean on.
func (t *Table) Encode() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeTable reads a serialized table, strictly: unknown fields, trailing
// data, dimension mismatches and non-finite values are all errors, because
// a Q-table artifact is a policy about to be given a worker pool.
func DecodeTable(data []byte) (*Table, error) {
	if len(data) > maxTableBytes {
		return nil, fmt.Errorf("rl: table exceeds %d bytes", maxTableBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t Table
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("rl: decode table: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("rl: decode table: trailing data after the JSON object")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// LoadTableFile reads a table artifact from disk.
func LoadTableFile(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeTable(data)
}

// SaveFile writes the serialized table to disk.
func (t *Table) SaveFile(path string) error {
	data, err := t.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
