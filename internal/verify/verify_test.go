package verify

import (
	"math"
	"testing"

	"disarcloud/internal/loadgen"
)

// checkRequest is a small, fast composition used across the API tests:
// bursty (exact model), modest bounds, the queue truncated at the SLA bound
// itself (the tightest truncation that cannot mask a violation), ~20k states.
func checkRequest() Request {
	return Request{
		Policy:        PolicyReactive,
		MinWorkers:    4,
		MaxWorkers:    16,
		TickMS:        100,
		MeanRuntimeMS: 250,
		Trace:         loadgen.Spec{Kind: loadgen.Bursty, Intervals: 256, Seed: 1, BaseRate: 1.5, PeakRate: 7},
		SLA:           SLA{QueueBound: 24, HorizonTicks: 60, MaxProbability: 0.9},
		MaxQueue:      24,
	}
}

// smallRequest shrinks checkRequest to a few thousand states for the tests
// that run many checks: a narrower pool under a gentler burst, a shorter
// horizon and a lower bound.
func smallRequest() Request {
	r := checkRequest()
	r.MaxWorkers = 10
	r.Trace.Intervals = 64
	r.Trace.PeakRate = 5
	r.SLA = SLA{QueueBound: 12, HorizonTicks: 30, MaxProbability: 0.9}
	r.MaxQueue = 12
	return r
}

func TestCheckPassAndViolationPaths(t *testing.T) {
	rep, err := Check(checkRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("generous bound %.2f failed with PViolation %.4f", rep.Request.SLA.MaxProbability, rep.Properties.PViolation)
	}
	if rep.Properties.PViolation <= 0 || rep.Properties.PViolation >= 1 {
		t.Fatalf("PViolation %.4f outside (0,1) — degenerate model", rep.Properties.PViolation)
	}
	if rep.Properties.ExpectedWorkerSeconds <= 0 || rep.Properties.ExpectedResizes <= 0 {
		t.Fatalf("degenerate cost/churn: %+v", rep.Properties)
	}
	// The negative path: the same composition against a deliberately
	// violated bound must report a clean failure, not an error.
	bad := checkRequest()
	bad.SLA.MaxProbability = rep.Properties.PViolation / 2
	repBad, err := Check(bad)
	if err != nil {
		t.Fatal(err)
	}
	if repBad.Pass {
		t.Fatalf("bound %.4f below PViolation %.4f still passed", bad.SLA.MaxProbability, repBad.Properties.PViolation)
	}
	if math.Float64bits(repBad.Properties.PViolation) != math.Float64bits(rep.Properties.PViolation) {
		t.Fatal("the SLA bound changed the computed probability")
	}
}

// The whole pipeline — discretization, policy FSM, BFS enumeration,
// canonical sort, value iteration — must be bit-deterministic: two
// independent runs of the same request produce identical float64 bits.
func TestCheckBitDeterminism(t *testing.T) {
	reqs := []Request{smallRequest()}
	hyb := smallRequest()
	hyb.Policy = PolicyHybrid
	hyb.Headroom = 1.3
	reqs = append(reqs, hyb)
	diu := smallRequest()
	diu.Trace = loadgen.Spec{Kind: loadgen.Diurnal, Intervals: 64, Seed: 3, BaseRate: 1, PeakRate: 4, Period: 32}
	diu.PhaseLevels = 3
	reqs = append(reqs, diu)
	for _, req := range reqs {
		a, err := Check(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Check(req)
		if err != nil {
			t.Fatal(err)
		}
		for name, pair := range map[string][2]float64{
			"PViolation":            {a.Properties.PViolation, b.Properties.PViolation},
			"ExpectedWorkerSeconds": {a.Properties.ExpectedWorkerSeconds, b.Properties.ExpectedWorkerSeconds},
			"ExpectedResizes":       {a.Properties.ExpectedResizes, b.Properties.ExpectedResizes},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("%s/%s: %s bits differ between runs: %x vs %x",
					req.Policy, req.Trace.Kind, name, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
		if a.Properties.States != b.Properties.States {
			t.Fatalf("state count differs between runs: %d vs %d", a.Properties.States, b.Properties.States)
		}
	}
}

func TestRequestValidationTable(t *testing.T) {
	mutate := func(f func(*Request)) Request {
		r := checkRequest()
		f(&r)
		return r
	}
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown policy", mutate(func(r *Request) { r.Policy = "rl" })},
		{"inverted bounds", mutate(func(r *Request) { r.MinWorkers = 20 })},
		{"zero tick", mutate(func(r *Request) { r.TickMS = 0 })},
		{"huge tick", mutate(func(r *Request) { r.TickMS = 120000 })},
		{"negative runtime", mutate(func(r *Request) { r.MeanRuntimeMS = -1 })},
		{"NaN runtime", mutate(func(r *Request) { r.MeanRuntimeMS = math.NaN() })},
		{"negative cooldown", mutate(func(r *Request) { r.ScaleUpCooldownMS = -5 })},
		{"absurd headroom", mutate(func(r *Request) { r.Headroom = 1000 })},
		{"bad trace", mutate(func(r *Request) { r.Trace.Kind = "square" })},
		{"zero queue bound", mutate(func(r *Request) { r.SLA.QueueBound = 0 })},
		{"zero horizon", mutate(func(r *Request) { r.SLA.HorizonTicks = 0 })},
		{"probability above one", mutate(func(r *Request) { r.SLA.MaxProbability = 1.5 })},
		{"bound beyond truncation", mutate(func(r *Request) { r.SLA.QueueBound = 100; r.MaxQueue = 50 })},
		{"levels beyond cap", mutate(func(r *Request) { r.PhaseLevels = loadgen.MaxPhaseLevels + 1 })},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the request", tc.name)
		}
	}
	if err := checkRequest().Validate(); err != nil {
		t.Fatalf("the reference request is invalid: %v", err)
	}
}

func TestRequestDefaults(t *testing.T) {
	r := checkRequest()
	r.MaxQueue = 0
	r.InitialWorkers = 0
	r.PhaseLevels = 0
	d := r.withDefaults()
	if d.MaxQueue != 4*r.SLA.QueueBound {
		t.Errorf("MaxQueue defaulted to %d, want %d", d.MaxQueue, 4*r.SLA.QueueBound)
	}
	if d.InitialWorkers != 4 {
		t.Errorf("InitialWorkers defaulted to %d, want MinWorkers 4", d.InitialWorkers)
	}
	if d.PhaseLevels != defaultLevels {
		t.Errorf("PhaseLevels defaulted to %d, want %d", d.PhaseLevels, defaultLevels)
	}
}

func TestSweepMarksParetoFront(t *testing.T) {
	spec := SweepSpec{
		Base:        smallRequest(),
		UpPressures: []float64{1.2, 1.5, 2.0},
		Headrooms:   []float64{0, 1.5},
	}
	spec.Base.SLA.MaxProbability = 0.5
	points, err := Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("swept %d cells, want 6", len(points))
	}
	pareto := 0
	for _, p := range points {
		if p.Pareto {
			pareto++
			// A Pareto point must not be dominated by any other point.
			for _, q := range points {
				if q.Properties.PViolation <= p.Properties.PViolation &&
					q.Properties.ExpectedWorkerSeconds <= p.Properties.ExpectedWorkerSeconds &&
					(q.Properties.PViolation < p.Properties.PViolation ||
						q.Properties.ExpectedWorkerSeconds < p.Properties.ExpectedWorkerSeconds) {
					t.Fatalf("cell marked Pareto (P=%.4f cost=%.1f) is dominated by (P=%.4f cost=%.1f)",
						p.Properties.PViolation, p.Properties.ExpectedWorkerSeconds,
						q.Properties.PViolation, q.Properties.ExpectedWorkerSeconds)
				}
			}
		}
	}
	if pareto == 0 {
		t.Fatal("no Pareto-optimal cell in the sweep")
	}
	// Headroom only matters for the hybrid policy, so this reactive sweep
	// must be insensitive to it: the two headroom columns agree bit-for-bit.
	for i := 0; i < len(points); i += 2 {
		if math.Float64bits(points[i].Properties.PViolation) != math.Float64bits(points[i+1].Properties.PViolation) {
			t.Fatal("reactive sweep varies with the hybrid-only headroom dimension")
		}
	}
}

func TestArrivalModelFromSpecExactMMPP(t *testing.T) {
	spec := loadgen.Spec{Kind: loadgen.Bursty, Intervals: 64, Seed: 9, BaseRate: 2, PeakRate: 10, BurstProb: 0.1, CalmProb: 0.4}
	m, err := ModelFromSpec(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Source != "exact-mmpp" || len(m.Rates) != 2 {
		t.Fatalf("bursty model is %q with %d phases, want exact-mmpp with 2", m.Source, len(m.Rates))
	}
	if m.Rates[0] != 2 || m.Rates[1] != 10 {
		t.Fatalf("phase rates %v, want the spec's calm/burst rates", m.Rates)
	}
	if m.Trans[0][1] != 0.1 || m.Trans[1][0] != 0.4 {
		t.Fatalf("transitions %v, want the spec's switch probabilities", m.Trans)
	}
	// The generator advances the regime chain once before the first
	// interval, so the initial distribution already carries burst mass.
	if m.Init[1] != 0.1 {
		t.Fatalf("initial burst probability %v, want BurstProb", m.Init[1])
	}
}

func TestArrivalPMFMassAndMean(t *testing.T) {
	for _, rate := range []float64{0, 0.3, 2, 17, 450} {
		pmf := arrivalPMF(rate)
		sum, mean := 0.0, 0.0
		for a, p := range pmf {
			sum += p
			mean += float64(a) * p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("rate %g: pmf mass %v", rate, sum)
		}
		// The lumped tail pulls the mean down by at most the truncated mass
		// at 8 sigma — far below 1e-6 relative.
		if rate > 0 && math.Abs(mean-rate) > 1e-6*rate {
			t.Fatalf("rate %g: pmf mean %v", rate, mean)
		}
	}
}

func TestBinomialPMFClosedForm(t *testing.T) {
	pmf := binomialPMF(3, 0.5)
	want := []float64{0.125, 0.375, 0.375, 0.125}
	for k := range want {
		if pmf[k] != want[k] {
			t.Fatalf("Binomial(3, 1/2) pmf %v, want %v", pmf, want)
		}
	}
	if got := binomialPMF(0, 0.7); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Binomial(0, p) pmf %v, want point mass", got)
	}
}
