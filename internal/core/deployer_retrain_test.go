package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"disarcloud/internal/cloud"
	"disarcloud/internal/provision"
)

// sequentialDeployHash is the FNV-64a of 40 sequential DeploySeeded calls
// from a cold knowledge base — per deploy: architecture, nodes, tier and the
// bits of the predicted and the measured seconds. It was recorded with the
// retrain still inside the deploy mutex: a single caller must keep seeing
// exactly that select -> execute -> record -> retrain sequence.
const sequentialDeployHash = "ebeeff338fee2294"

func TestSequentialDeploysKeepTheirBits(t *testing.T) {
	// Two architectures, so 40 bootstrap picks cross the 12-sample training
	// threshold and the later deploys are selected on retrained models.
	d, err := NewDeployer(2016, WithCatalog(cloud.Catalog()[:2]))
	if err != nil {
		t.Fatal(err)
	}
	mix := workloadMix()
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	selected := 0
	for i := 0; i < 40; i++ {
		rep, err := d.DeploySeeded(context.Background(), mix[i%len(mix)], constraints(), uint64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Bootstrap {
			selected++
		}
		slot := rep.Choice.Primary()
		h.Write([]byte(slot.Type.Name))
		word(uint64(slot.Nodes))
		word(uint64(rep.Choice.Tier))
		word(math.Float64bits(rep.PredictedSeconds))
		word(math.Float64bits(rep.ActualSeconds))
	}
	if selected == 0 {
		t.Fatal("no deploy left the bootstrap phase: the sequence never exercised a retrained model")
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != sequentialDeployHash {
		t.Fatalf("deploy sequence hash %s, recorded %s (%d ML-selected deploys)", got, sequentialDeployHash, selected)
	}
}

// assertPredictorMatchesKB checks the installed suites against the knowledge
// base as it stands: for every architecture, each learner must predict
// bit-identically to a fresh predictor retrained on the final KB (or be
// untrained, below the threshold). That holds only if the last snapshot of
// every architecture was both taken after its last KB change and installed
// over every earlier one.
func assertPredictorMatchesKB(t *testing.T, d *Deployer, seed uint64) {
	t.Helper()
	fresh := provision.NewEnsemblePredictor(seed ^ 0xabcdef)
	if err := fresh.Retrain(d.KB()); err != nil {
		t.Fatal(err)
	}
	for _, it := range cloud.Catalog() {
		if got, want := d.Predictor().Trained(it.Name), fresh.Trained(it.Name); got != want {
			t.Fatalf("%s: trained = %v, a fresh retrain on the final KB says %v", it.Name, got, want)
		} else if !want {
			continue
		}
		for nodes := 1; nodes <= 6; nodes++ {
			got, err := d.Predictor().PredictPerModel(it.Name, nodes, workload())
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.PredictPerModel(it.Name, nodes, workload())
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range want {
				if math.Float64bits(got[name]) != math.Float64bits(v) {
					t.Fatalf("%s x%d %s: installed suite predicts %v, a fresh retrain on the final KB %v", it.Name, nodes, name, got[name], v)
				}
			}
		}
	}
}

// TestConcurrentDeploysConverge: 8 goroutines x 10 seeded deploys on a warm
// 120-sample knowledge base, retraining after every sample. Suites finish
// training in any order; once every deploy has returned, the knowledge base
// holds every sample and the predictor is the one a retrain on it produces.
func TestConcurrentDeploysConverge(t *testing.T) {
	const seed = 57
	d, err := NewDeployer(seed, WithRetrainEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := d.Bootstrap(ctx, workloadMix(), 20, 6); err != nil {
		t.Fatal(err)
	}
	before := d.KB().Len()
	if before != 120 {
		t.Fatalf("warm KB has %d samples, want 120", before)
	}
	mix := workloadMix()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := d.DeploySeeded(ctx, mix[(g+i)%len(mix)], constraints(), uint64(100*g+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := d.KB().Len(); got != before+80 {
		t.Fatalf("KB grew by %d samples, want exactly 80", got-before)
	}
	assertPredictorMatchesKB(t, d, seed)
}

// TestForgetRacingDeploysNeverResurrects interleaves the cleanup of
// panicked valuations (forget: retract the sample, retrain or drop) with
// concurrent deploys on the same architecture, starting right at the
// training threshold so retractions can fall below it. A suite trained on a
// snapshot that still held a retracted sample must never be the one left
// installed.
func TestForgetRacingDeploysNeverResurrects(t *testing.T) {
	const seed, arch = 58, "c4.4xlarge"
	d, err := NewDeployer(seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mix := workloadMix()
	for i := 0; i < provision.MinSamplesToTrain; i++ {
		if _, err := d.DeployManual(ctx, arch, 1+i%6, mix[i%len(mix)]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				rep, err := d.DeployManual(ctx, arch, 1+(g+i)%6, mix[(g+i)%len(mix)])
				if err != nil {
					t.Error(err)
					return
				}
				if g%2 == 0 { // this goroutine's valuations all "panic"
					if err := d.forget(rep); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := d.KB().Len(), provision.MinSamplesToTrain+3*6; got != want {
		t.Fatalf("KB holds %d samples, want %d", got, want)
	}
	assertPredictorMatchesKB(t, d, seed)
}
