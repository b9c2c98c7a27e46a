package rl

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"disarcloud/internal/elastic"
	"disarcloud/internal/loadgen"
)

// testSpec is a small training configuration that keeps the test suite
// fast; semantics tests that probe cooldown gating override the cooldowns.
func testSpec() Spec {
	s := DefaultSpec()
	s.Episodes = 40
	s.Traces = []loadgen.Spec{
		{Kind: loadgen.Diurnal, Intervals: 64, Seed: 1, BaseRate: 0.3, PeakRate: 1.2, Period: 16},
		{Kind: loadgen.Flash, Intervals: 64, Seed: 3, BaseRate: 0.3, PeakRate: 1.2},
	}
	return s
}

// TestTrainDeterministic: training is a pure function of the spec — two runs
// serialize byte-identically — and the seed actually matters.
func TestTrainDeterministic(t *testing.T) {
	spec := testSpec()
	a, err := Train(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(spec)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("two identical trainings serialized differently")
	}
	spec.Seed++
	c, err := Train(spec)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ab, cb) {
		t.Fatal("different seeds trained identical tables")
	}
}

// TestTableRoundTrip: a table written to disk and loaded back is the same
// artifact — byte-identical re-encoding AND bit-identical replay decisions.
func TestTableRoundTrip(t *testing.T) {
	spec := testSpec()
	trained, err := Train(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "q.json")
	if err := trained.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTableFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := trained.Encode()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tb, lb) {
		t.Fatal("loaded table re-encodes differently from the trained one")
	}

	counts, rates, err := loadgen.GenerateWithRates(spec.Traces[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{
		TickMS: spec.TickMS, MeanRuntimeMS: spec.MeanRuntimeMS,
		MaxQueue: spec.MaxQueue, QueueBound: spec.QueueBound,
		InitialWorkers: spec.MinWorkers, Seed: 99,
	}
	tr := elastic.Trace{Counts: counts, Rates: rates}
	ra, err := Simulate(tr, trained, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(tr, loaded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("loaded table replays differently:\n trained %+v\n loaded  %+v", ra, rb)
	}
}

// TestShippedArtifactFresh: the committed artifact is exactly what training
// the shipped default spec produces today. If this fails, the spec or the
// trainer changed without regenerating testdata/qtable_v1.json — run
// `go run ./cmd/qtrain` and re-verify before shipping.
func TestShippedArtifactFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("training takes a few seconds")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "qtable_v1.json"))
	if err != nil {
		t.Fatalf("shipped artifact missing: %v", err)
	}
	trained, err := Train(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	got, err := trained.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("retraining the default spec does not reproduce testdata/qtable_v1.json; regenerate it with `go run ./cmd/qtrain`")
	}
}

// TestApplySemantics: the action execution layer honors the controller's
// semantics — immediate bounds enforcement, cooldown-gated grows, one-at-a-
// time cooldown-gated shrinks.
func TestApplySemantics(t *testing.T) {
	spec := testSpec()
	spec.GrowCooldownTicks = 3
	spec.ShrinkCooldownTicks = 2
	tbl, err := NewTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	grow4 := len(spec.Steps) - 1 // step +4
	hold := 1                    // step 0
	shrink := 0                  // step -1

	// Floor and ceiling enforcement is immediate and stamps no cooldowns.
	st, target, reason := tbl.Apply(tbl.Init(), elastic.Backlog(0, 1), hold)
	if target != spec.MinWorkers || reason != "learned-floor" {
		t.Fatalf("below floor: target %d (%s), want %d", target, reason, spec.MinWorkers)
	}
	if st.SinceUp != tbl.Init().SinceUp || st.SinceDown != tbl.Init().SinceDown {
		t.Fatalf("floor enforcement stamped a cooldown: %+v", st)
	}
	if _, target, reason = tbl.Apply(tbl.Init(), elastic.Backlog(0, 40), hold); target != spec.MaxWorkers || reason != "learned-ceiling" {
		t.Fatalf("above ceiling: target %d (%s), want %d", target, reason, spec.MaxWorkers)
	}

	// A grow applies its full step (capped at MaxWorkers) and stamps SinceUp.
	st, target, reason = tbl.Apply(tbl.Init(), elastic.Backlog(9, 5), grow4)
	if target != 9 || reason != "learned-grow" {
		t.Fatalf("grow target %d (%s), want 9", target, reason)
	}
	if st.SinceUp != 1 {
		t.Fatalf("grow left SinceUp %d, want 1 (stamped, then one tick elapsed)", st.SinceUp)
	}
	if _, target, _ = tbl.Apply(tbl.Init(), elastic.Backlog(30, 15), grow4); target != spec.MaxWorkers {
		t.Fatalf("grow past ceiling: target %d, want %d", target, spec.MaxWorkers)
	}
	// Inside the grow cooldown the same action holds.
	if _, target, _ = tbl.Apply(st, elastic.Backlog(9, 9), grow4); target != 9 {
		t.Fatalf("grow inside cooldown resized to %d", target)
	}
	// At the ceiling a grow holds without stamping.
	if _, target, _ = tbl.Apply(tbl.Init(), elastic.Backlog(0, spec.MaxWorkers), grow4); target != spec.MaxWorkers {
		t.Fatalf("grow at ceiling: target %d", target)
	}

	// A shrink releases exactly one worker and stamps SinceDown.
	st, target, reason = tbl.Apply(tbl.Init(), elastic.Backlog(0, 5), shrink)
	if target != 4 || reason != "learned-shrink" {
		t.Fatalf("shrink target %d (%s), want 4", target, reason)
	}
	if st.SinceDown != 1 {
		t.Fatalf("shrink left SinceDown %d, want 1", st.SinceDown)
	}
	// Inside the shrink cooldown it holds.
	if _, target, _ = tbl.Apply(st, elastic.Backlog(0, 4), shrink); target != 4 {
		t.Fatalf("shrink inside cooldown resized to %d", target)
	}
	// A shrink on the heels of a grow is a thrash: SinceUp gates it too.
	fresh := tbl.Init()
	fresh.SinceUp = 0
	if _, target, _ = tbl.Apply(fresh, elastic.Backlog(0, 5), shrink); target != 5 {
		t.Fatalf("shrink right after a grow resized to %d", target)
	}
	// At the floor a shrink holds.
	if _, target, _ = tbl.Apply(tbl.Init(), elastic.Backlog(0, spec.MinWorkers), shrink); target != spec.MinWorkers {
		t.Fatalf("shrink at floor: target %d", target)
	}
}

// TestStateIndex: every observation maps inside the table, and the features
// that should move the index do.
func TestStateIndex(t *testing.T) {
	tbl, err := NewTable(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	n := tbl.Spec.NumStates()
	for _, st := range []elastic.State{tbl.Init(), {PrevRate: 1}, {PrevRate: 6}} {
		for q := -1; q <= 70; q += 7 {
			for w := 0; w <= 20; w += 2 {
				for _, rate := range []float64{-1, 0, 0.5, 1.3, math.NaN()} {
					obs := elastic.Backlog(q, w)
					obs.RatePerTick = rate
					idx := tbl.StateIndex(st, obs)
					if idx < 0 || idx >= n {
						t.Fatalf("index %d outside [0, %d) for q=%d w=%d rate=%g", idx, n, q, w, rate)
					}
				}
			}
		}
	}
	// The absolute rate bucket is part of the state: the same pressure at a
	// different load level is a different row.
	st := tbl.Init()
	at := func(rate float64) elastic.Obs {
		obs := elastic.Backlog(4, 8)
		obs.RatePerTick = rate
		return obs
	}
	low := tbl.StateIndex(st, at(0.1))
	high := tbl.StateIndex(st, at(1.1))
	if low == high {
		t.Fatal("rate level does not move the state index")
	}
	// So is the slope: the same observation after a higher previous bucket
	// reads as falling, not flat.
	flat := tbl.StateIndex(elastic.State{PrevRate: tbl.rateBucket(0.5) + 1}, at(0.5))
	falling := tbl.StateIndex(elastic.State{PrevRate: 7}, at(0.5))
	if flat == falling {
		t.Fatal("rate slope does not move the state index")
	}
}

// TestSpecValidate: the documented rejections fire.
func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Spec)
	}{
		{"zero min workers", func(s *Spec) { s.MinWorkers = 0 }},
		{"max below min", func(s *Spec) { s.MaxWorkers = 1 }},
		{"huge pool", func(s *Spec) { s.MaxWorkers = maxSpecWorkers + 1 }},
		{"zero tick", func(s *Spec) { s.TickMS = 0 }},
		{"negative runtime", func(s *Spec) { s.MeanRuntimeMS = -1 }},
		{"no pressure cuts", func(s *Spec) { s.PressureCuts = nil }},
		{"descending cuts", func(s *Spec) { s.PressureCuts = []float64{1, 0.5} }},
		{"infinite cut", func(s *Spec) { s.RateCuts = []float64{math.Inf(1)} }},
		{"zero pool buckets", func(s *Spec) { s.PoolBuckets = 0 }},
		{"one action", func(s *Spec) { s.Steps = []int{0} }},
		{"no hold action", func(s *Spec) { s.Steps = []int{-1, 1} }},
		{"multi-worker shrink", func(s *Spec) { s.Steps = []int{-2, 0, 1} }},
		{"unordered steps", func(s *Spec) { s.Steps = []int{0, 2, 1} }},
		{"oversized step", func(s *Spec) { s.Steps = []int{0, maxSpecStep + 1} }},
		{"negative cooldown", func(s *Spec) { s.GrowCooldownTicks = -1 }},
		{"zero max queue", func(s *Spec) { s.MaxQueue = 0 }},
		{"bound above queue", func(s *Spec) { s.QueueBound = s.MaxQueue + 1 }},
		{"negative weight", func(s *Spec) { s.SLAWeight = -1 }},
		{"zero alpha", func(s *Spec) { s.Alpha = 0 }},
		{"gamma one", func(s *Spec) { s.Gamma = 1 }},
		{"epsilon above one", func(s *Spec) { s.Epsilon = 1.1 }},
		{"zero episodes", func(s *Spec) { s.Episodes = 0 }},
		{"runaway episodes", func(s *Spec) { s.Episodes = maxSpecEpisodes + 1 }},
		{"no traces", func(s *Spec) { s.Traces = nil }},
		{"bad trace", func(s *Spec) { s.Traces = []loadgen.Spec{{Kind: "weird"}} }},
	}
	for _, m := range mutations {
		spec := DefaultSpec()
		m.mut(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: validated", m.name)
		}
	}
}

// TestDecodeTableStrict: the artifact decoder rejects everything but a
// well-formed table of the supported version.
func TestDecodeTableStrict(t *testing.T) {
	tbl, err := NewTable(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	valid, err := tbl.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTable(valid); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}

	if _, err := DecodeTable(append(bytes.Clone(valid), []byte("{}")...)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := DecodeTable(bytes.Replace(valid, []byte(`"version"`), []byte(`"versioX"`), 1)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := DecodeTable(append(bytes.Clone(valid), make([]byte, maxTableBytes)...)); err == nil {
		t.Error("oversized artifact accepted")
	}

	wrongVersion := *tbl
	wrongVersion.Version = TableVersion + 1
	data, err := json.Marshal(&wrongVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTable(data); err == nil {
		t.Error("future version accepted")
	}

	truncated := *tbl
	truncated.Q = truncated.Q[:len(truncated.Q)-1]
	if data, err = json.Marshal(&truncated); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTable(data); err == nil {
		t.Error("dimension mismatch accepted")
	}

	poisoned := *tbl
	poisoned.Q = append([][]float64{}, tbl.Q...)
	poisoned.Q[0] = []float64{math.NaN()}
	if poisoned.Validate() == nil {
		t.Error("non-finite action value validated")
	}
}

// fixedPolicy always answers the same worker target.
type fixedPolicy int

func (fixedPolicy) Name() string        { return "fixed" }
func (fixedPolicy) Init() elastic.State { return elastic.State{} }

func (p fixedPolicy) Step(st elastic.State, _ elastic.Obs) (elastic.State, int, string) {
	return st, int(p), "fixed"
}

// TestSimulate: the replay harness is deterministic, scores a fixed pool's
// cost exactly, and rejects malformed inputs.
func TestSimulate(t *testing.T) {
	cfg := SimConfig{TickMS: 100, MeanRuntimeMS: 1000, MaxQueue: 64, QueueBound: 32, InitialWorkers: 4, Seed: 7}

	// A zero trace under a fixed pool: no jobs, exact worker-seconds.
	zeros := make([]int, 50)
	rates := make([]float64, 50)
	res, err := Simulate(elastic.Trace{Counts: zeros, Rates: rates}, fixedPolicy(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 0 || res.Dropped != 0 || res.Unfinished != 0 {
		t.Fatalf("zero trace produced jobs: %+v", res)
	}
	if want := 4 * 0.1 * 50; math.Abs(res.WorkerSeconds-want) > 1e-9 {
		t.Fatalf("worker-seconds %g, want %g", res.WorkerSeconds, want)
	}

	// A real trace replays bit-identically, completes its jobs, and a
	// one-worker pool is strictly worse on latency.
	spec := loadgen.Spec{Kind: loadgen.Diurnal, Intervals: 128, Seed: 5, BaseRate: 0.3, PeakRate: 1.2, Period: 32}
	counts, profile, err := loadgen.GenerateWithRates(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Simulate(elastic.Trace{Counts: counts, Rates: profile}, fixedPolicy(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(elastic.Trace{Counts: counts, Rates: profile}, fixedPolicy(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("replay not deterministic:\n %+v\n %+v", a, b)
	}
	if a.Jobs+a.Dropped+a.Unfinished != loadgen.Total(counts) {
		t.Fatalf("jobs %d + dropped %d + unfinished %d != arrivals %d",
			a.Jobs, a.Dropped, a.Unfinished, loadgen.Total(counts))
	}
	starved, err := Simulate(elastic.Trace{Counts: counts, Rates: profile}, fixedPolicy(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if starved.P95LatencyTicks <= a.P95LatencyTicks {
		t.Fatalf("one worker p95 %g not worse than eight workers' %g",
			starved.P95LatencyTicks, a.P95LatencyTicks)
	}

	// Malformed inputs are errors, not panics.
	if _, err := Simulate(elastic.Trace{}, fixedPolicy(1), cfg); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := Simulate(elastic.Trace{Counts: zeros, Rates: rates[:10]}, fixedPolicy(1), cfg); err == nil {
		t.Error("mismatched counts/rates accepted")
	}
	bad := cfg
	bad.TickMS = 0
	if _, err := Simulate(elastic.Trace{Counts: zeros, Rates: rates}, fixedPolicy(1), bad); err == nil {
		t.Error("zero tick accepted")
	}
	bad = cfg
	bad.QueueBound = cfg.MaxQueue + 1
	if _, err := Simulate(elastic.Trace{Counts: zeros, Rates: rates}, fixedPolicy(1), bad); err == nil {
		t.Error("queue bound above max queue accepted")
	}
	bad = cfg
	bad.InitialWorkers = 0
	if _, err := Simulate(elastic.Trace{Counts: zeros, Rates: rates}, fixedPolicy(1), bad); err == nil {
		t.Error("zero initial workers accepted")
	}
}

// TestQuantile: the interpolated quantile matches the R-7 convention.
func TestQuantile(t *testing.T) {
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile %g", got)
	}
	if got := quantile([]int{3}, 0.95); got != 3 {
		t.Fatalf("singleton quantile %g", got)
	}
	// Four points: p50 sits halfway between the 2nd and 3rd order statistics.
	if got := quantile([]int{1, 2, 4, 8}, 0.5); math.Abs(got-3) > 1e-9 {
		t.Fatalf("p50 of 1,2,4,8 = %g, want 3", got)
	}
	if got := quantile([]int{1, 2, 4, 8}, 0.95); math.Abs(got-7.4) > 1e-9 {
		t.Fatalf("p95 of 1,2,4,8 = %g, want 7.4", got)
	}
}

// TestBanditMode: the contextual-bandit baseline trains (gamma forced to 0)
// and reports that in its hyperparameters.
func TestBanditMode(t *testing.T) {
	spec := testSpec()
	spec.Bandit = true
	tbl, err := Train(spec)
	if err != nil {
		t.Fatal(err)
	}
	params := tbl.Params()
	if params["gamma"] != 0 {
		t.Fatalf("bandit gamma %g, want 0", params["gamma"])
	}
	for _, k := range []string{"version", "states", "actions", "alpha", "epsilon", "episodes", "min_workers", "max_workers"} {
		if _, ok := params[k]; !ok {
			t.Errorf("Params missing %q", k)
		}
	}
}

// BenchmarkQTrainEpisode times one full training episode (trace generation
// plus the Q-update sweep) — the unit the offline trainer scales by.
func BenchmarkQTrainEpisode(b *testing.B) {
	spec := DefaultSpec()
	spec.Episodes = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLearnedPolicyTick times one greedy control-tick decision — the
// cost the live control loop pays per tick when the learned policy drives.
func BenchmarkLearnedPolicyTick(b *testing.B) {
	spec := testSpec()
	tbl, err := Train(spec)
	if err != nil {
		b.Fatal(err)
	}
	decide := elastic.Stepper(tbl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := elastic.Backlog(i%32, 2+i%14)
		obs.RatePerTick = float64(i%4) * 0.4
		decide(obs)
	}
}
