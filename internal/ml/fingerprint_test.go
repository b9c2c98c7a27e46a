package ml

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"disarcloud/internal/finmath"
)

// The suite fingerprint pins every learner's trained model bit for bit: per
// learner, an FNV-64a over the prediction bits of a seeded 300-point probe.
// The file was recorded before the training code was parallelised and its
// allocations cut, so any change to a draw order, a sort permutation among
// tied keys or a floating-point summation order shows up here.
const fingerprintFile = "testdata/suite_fingerprint.json"

var updateFingerprint = flag.Bool("update-fingerprint", false, "rewrite testdata/suite_fingerprint.json from this run")

var fingerprintNames = []string{"nodes", "contracts", "horizon", "assets", "riskfactors", "outer", "inner"}

// denseDataset draws continuous-ish features: few ties.
func denseDataset(rng *finmath.RNG, n int) *Dataset {
	d := NewDataset(fingerprintNames)
	for i := 0; i < n; i++ {
		x := []float64{
			float64(1 + rng.Intn(16)),
			5 + 95*rng.Float64(),
			5 + 35*rng.Float64(),
			1 + 11*rng.Float64(),
			float64(2 + rng.Intn(4)),
			100 + 4900*rng.Float64(),
			10 + 90*rng.Float64(),
		}
		_ = d.Add(x, fingerprintTarget(rng, x))
	}
	return d
}

// kbLikeDataset mimics a knowledge-base slice: every feature takes one of a
// handful of values, so split scans, bin edges and neighbour distances are
// full of ties — where an unstable sort could move a bit.
func kbLikeDataset(rng *finmath.RNG, n int) *Dataset {
	d := NewDataset(fingerprintNames)
	contracts := []float64{6, 10, 15, 25, 50}
	horizons := []float64{10, 20, 25, 30}
	outers := []float64{30, 500, 1000, 2000}
	inners := []float64{3, 30, 50}
	for i := 0; i < n; i++ {
		x := []float64{
			float64(1 + rng.Intn(8)),
			contracts[rng.Intn(len(contracts))],
			horizons[rng.Intn(len(horizons))],
			float64(5 + 3*rng.Intn(2)),
			3,
			outers[rng.Intn(len(outers))],
			inners[rng.Intn(len(inners))],
		}
		_ = d.Add(x, fingerprintTarget(rng, x))
	}
	return d
}

func fingerprintTarget(rng *finmath.RNG, x []float64) float64 {
	y := 30 + x[1]*x[2]*x[5]*x[6]/(4000*x[0]) + 9*x[0] + 2*x[3]*x[4]
	return y * (1 + 0.04*rng.NormFloat64())
}

func fingerprintProbe() [][]float64 {
	rng := finmath.NewRNG(300)
	probe := make([][]float64, 300)
	for i := range probe {
		// Half the probe falls on KB-like lattice points, half in between.
		src := denseDataset
		if i%2 == 0 {
			src = kbLikeDataset
		}
		probe[i] = src(rng, 1).Instances[0].Features
	}
	return probe
}

// suiteFingerprints trains NewSuite(2016) on every fingerprint dataset and
// hashes each learner's predictions over the probe.
func suiteFingerprints(t *testing.T) map[string]map[string]string {
	t.Helper()
	datasets := map[string]*Dataset{
		"dense_n12":   denseDataset(finmath.NewRNG(12), 12),
		"dense_n60":   denseDataset(finmath.NewRNG(60), 60),
		"dense_n455":  denseDataset(finmath.NewRNG(455), 455),
		"kblike_n455": kbLikeDataset(finmath.NewRNG(4550), 455),
	}
	probe := fingerprintProbe()
	out := make(map[string]map[string]string, len(datasets))
	for name, d := range datasets {
		suite := NewSuite(2016)
		if err := (&Ensemble{Models: suite}).Train(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = make(map[string]string, len(suite))
		for _, m := range suite {
			h := fnv.New64a()
			var buf [8]byte
			for _, x := range probe {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.Predict(x)))
				h.Write(buf[:])
			}
			out[name][m.Name()] = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	return out
}

func TestSuiteFingerprint(t *testing.T) {
	if *updateFingerprint {
		data, err := json.MarshalIndent(suiteFingerprints(t), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	// Worker counts come from GOMAXPROCS: one core and more cores than the
	// CI box has must train the same bits.
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := suiteFingerprints(t)
			if len(got) != len(want) {
				t.Fatalf("fingerprint file has %d datasets, the test trains %d", len(want), len(got))
			}
			for ds, learners := range got {
				for name, h := range learners {
					if want[ds][name] != h {
						t.Errorf("%s/%s: fingerprint %s, recorded %s", ds, name, h, want[ds][name])
					}
				}
			}
		})
	}
}

// TestForestDeterministicAcrossWorkers trains one forest with 1 and with 8
// tree-growing goroutines and compares every tree: which worker grows which
// tree, and in what order, must not reach the model.
func TestForestDeterministicAcrossWorkers(t *testing.T) {
	d := kbLikeDataset(finmath.NewRNG(77), 200)
	probe := fingerprintProbe()
	train := func(procs int) *RandomForest {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f := NewRandomForest(2016)
		if err := f.Train(d); err != nil {
			t.Fatal(err)
		}
		return f
	}
	one, eight := train(1), train(8)
	for i := range one.members {
		for _, x := range probe {
			if a, b := one.members[i].Predict(x), eight.members[i].Predict(x); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("tree %d predicts %v on 1 worker and %v on 8", i, a, b)
			}
		}
	}
}

// TestTrainAllReportsTheFirstErrorInModelOrder keeps the sequential loop's
// contract: whichever goroutine fails first, the caller sees the earliest
// failing model.
func TestTrainAllReportsTheFirstErrorInModelOrder(t *testing.T) {
	err := TrainAll(NewSuite(1), NewDataset(fingerprintNames))
	if !errors.Is(err, ErrEmptyDataset) || !strings.HasPrefix(err.Error(), "MLP: ") {
		t.Fatalf("TrainAll on an empty dataset = %v, want the MLP's ErrEmptyDataset", err)
	}
}
