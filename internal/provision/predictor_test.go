package provision

import (
	"math"
	"testing"

	"disarcloud/internal/cloud"
	"disarcloud/internal/finmath"
	"disarcloud/internal/kb"
)

// growKB appends n ground-truth samples of one architecture.
func growKB(t *testing.T, k *kb.KB, rng *finmath.RNG, arch string, n int) {
	t.Helper()
	pm := cloud.DefaultPerfModel()
	it, _ := cloud.TypeByName(arch)
	for i := 0; i < n; i++ {
		f := params()
		f.RepresentativeContracts = 5 + rng.Intn(60)
		nodes := 1 + rng.Intn(8)
		if err := k.Add(kb.Sample{Architecture: arch, Nodes: nodes, Params: f, Seconds: pm.ExecSeconds(rng, it, nodes, f)}); err != nil {
			t.Fatal(err)
		}
	}
}

// samePredictions reports whether two predictors hold bit-identical suites
// for the architecture, judged per learner on an in-range query.
func samePredictions(t *testing.T, a, b *EnsemblePredictor, arch string) bool {
	t.Helper()
	pa, err := a.PredictPerModel(arch, 3, params())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.PredictPerModel(arch, 3, params())
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range pa {
		if math.Float64bits(v) != math.Float64bits(pb[name]) {
			return false
		}
	}
	return true
}

// TestLateSuiteNeverReplacesANewerGeneration is the resurrection race in
// slow motion: a suite trained on an older snapshot finishes after a newer
// one was installed, or after the architecture was dropped. The newer
// generation's state must stand.
func TestLateSuiteNeverReplacesANewerGeneration(t *testing.T) {
	const arch = "c4.4xlarge"
	k := kb.New()
	rng := finmath.NewRNG(31)
	growKB(t, k, rng, arch, 20)

	p := NewEnsemblePredictor(9)
	older := p.Snapshot(k, arch)
	growKB(t, k, rng, arch, 5)
	newer := p.Snapshot(k, arch)

	want := NewEnsemblePredictor(9) // what the newer snapshot alone trains
	if err := want.RetrainArchitecture(k, arch); err != nil {
		t.Fatal(err)
	}
	if err := p.Train(newer); err != nil {
		t.Fatal(err)
	}
	if err := p.Train(older); err != nil { // finishes late
		t.Fatal(err)
	}
	if !samePredictions(t, p, want, arch) {
		t.Fatal("a suite trained on the older snapshot replaced the newer generation")
	}

	// The same with a Drop in between: the architecture stays untrained.
	stale := p.Snapshot(k, arch)
	p.Drop(arch)
	if err := p.Train(stale); err != nil {
		t.Fatal(err)
	}
	if p.Trained(arch) {
		t.Fatal("a suite trained before the Drop resurrected the architecture")
	}
	// A snapshot taken after the Drop trains again.
	if err := p.RetrainArchitecture(k, arch); err != nil {
		t.Fatal(err)
	}
	if !samePredictions(t, p, want, arch) {
		t.Fatal("retraining after the Drop did not reproduce the suite")
	}
}

// TestSnapshotIsACopy: samples recorded after the snapshot must not reach
// the suite trained on it.
func TestSnapshotIsACopy(t *testing.T) {
	const arch = "m4.4xlarge"
	k := kb.New()
	rng := finmath.NewRNG(32)
	growKB(t, k, rng, arch, MinSamplesToTrain)

	want := NewEnsemblePredictor(3)
	if err := want.RetrainArchitecture(k, arch); err != nil {
		t.Fatal(err)
	}
	p := NewEnsemblePredictor(3)
	snap := p.Snapshot(k, arch)
	growKB(t, k, rng, arch, 10)
	if err := p.Train(snap); err != nil {
		t.Fatal(err)
	}
	if !samePredictions(t, p, want, arch) {
		t.Fatal("the suite saw samples recorded after its snapshot")
	}
	if got := p.Snapshot(k, "c3.4xlarge", "nope"); len(got) != 0 {
		t.Fatalf("architectures below the threshold produced %d snapshots", len(got))
	}
}
