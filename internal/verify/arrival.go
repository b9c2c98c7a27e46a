package verify

import (
	"errors"
	"fmt"
	"math"

	"disarcloud/internal/loadgen"
)

// ArrivalModel is a finite Markov arrival process: the demand side of the
// verified composition. Each phase has a mean arrival rate per control
// tick; per-tick arrival counts are Poisson around the current phase's
// rate, and the phase itself evolves by the transition matrix. The model's
// tick is the policy's control tick — one loadgen interval maps to one
// decision.
type ArrivalModel struct {
	// Rates is the mean arrivals per tick of each phase.
	Rates []float64
	// Trans[i][j] is the per-tick probability of moving from phase i to j.
	Trans [][]float64
	// Init is the initial phase distribution.
	Init []float64
	// Source records how the model was obtained ("exact-mmpp" or
	// "discretized") for reports.
	Source string
}

// maxPhaseRate bounds a phase's per-tick arrival rate: the builder expands
// each phase into an explicit truncated-Poisson row, which is exact only
// while exp(-rate) stays representable with room to spare. 500 arrivals per
// control tick is far beyond any configuration this service runs.
const maxPhaseRate = 500

// Validate reports whether the model is a well-formed finite arrival
// process.
func (m ArrivalModel) Validate() error {
	p := len(m.Rates)
	if p == 0 {
		return errors.New("verify: arrival model has no phases")
	}
	if len(m.Trans) != p || len(m.Init) != p {
		return fmt.Errorf("verify: arrival model shape mismatch: %d rates, %d transition rows, %d init entries",
			p, len(m.Trans), len(m.Init))
	}
	for i, r := range m.Rates {
		if !(r >= 0) || math.IsInf(r, 0) {
			return fmt.Errorf("verify: phase %d rate %g is not finite non-negative", i, r)
		}
		if r > maxPhaseRate {
			return fmt.Errorf("verify: phase %d rate %g exceeds the per-tick limit %d", i, r, maxPhaseRate)
		}
	}
	initSum := 0.0
	for i, v := range m.Init {
		if !(v >= 0) || v > 1 {
			return fmt.Errorf("verify: initial phase probability %g at %d outside [0,1]", v, i)
		}
		initSum += v
	}
	if math.Abs(initSum-1) > probTol {
		return fmt.Errorf("verify: initial phase distribution sums to %.12f", initSum)
	}
	for i, row := range m.Trans {
		if len(row) != p {
			return fmt.Errorf("verify: transition row %d has %d entries, want %d", i, len(row), p)
		}
		sum := 0.0
		for j, v := range row {
			if !(v >= 0) || v > 1 {
				return fmt.Errorf("verify: transition probability %g at (%d,%d) outside [0,1]", v, i, j)
			}
			sum += v
		}
		if math.Abs(sum-1) > probTol {
			return fmt.Errorf("verify: transition row %d sums to %.12f", i, sum)
		}
	}
	return nil
}

// ModelFromSpec derives an arrival model from a loadgen trace spec. The
// Bursty family IS a two-phase Markov-modulated Poisson process, so its
// model is exact — the generator's own switch probabilities, with the
// initial distribution reflecting that the regime chain advances once
// before the first interval. Every other family is discretized from the
// deterministic rate profile into (rate level, rising/falling branch)
// phases via loadgen.DiscretizeRates.
func ModelFromSpec(spec loadgen.Spec, levels int) (ArrivalModel, error) {
	if err := spec.Validate(); err != nil {
		return ArrivalModel{}, err
	}
	d := spec.WithDefaults()
	if d.Kind == loadgen.Bursty {
		b, c := d.BurstProb, d.CalmProb
		return ArrivalModel{
			Rates:  []float64{d.BaseRate, d.PeakRate},
			Trans:  [][]float64{{1 - b, b}, {c, 1 - c}},
			Init:   []float64{1 - b, b},
			Source: "exact-mmpp",
		}, nil
	}
	rates, err := loadgen.Rates(spec)
	if err != nil {
		return ArrivalModel{}, err
	}
	pm, err := loadgen.DiscretizeRates(rates, levels)
	if err != nil {
		return ArrivalModel{}, err
	}
	return ArrivalModel{Rates: pm.Rates, Trans: pm.Trans, Init: pm.Init, Source: "discretized"}, nil
}

// arrivalPMF returns the distribution of per-tick arrivals in a phase:
// Poisson(rate) truncated at rate + 8*sqrt(rate) + 4 — eight standard
// deviations out — with the remaining tail mass lumped into the last
// bucket, so every row sums to exactly the probability it should and the
// truncation can only overstate congestion, never hide it.
func arrivalPMF(rate float64) []float64 {
	if rate <= 0 {
		return []float64{1}
	}
	amax := int(math.Ceil(rate + 8*math.Sqrt(rate) + 4))
	pmf := make([]float64, amax+1)
	pmf[0] = math.Exp(-rate)
	sum := pmf[0]
	for a := 1; a < amax; a++ {
		pmf[a] = pmf[a-1] * rate / float64(a)
		sum += pmf[a]
	}
	tail := 1 - sum
	if tail < 0 {
		tail = 0
	}
	pmf[amax] = tail
	return pmf
}

// binomialPMF returns the distribution of successes among n independent
// trials with success probability p, by convolving the trials one at a
// time — exact to float rounding, in a fixed accumulation order.
func binomialPMF(n int, p float64) []float64 {
	pmf := make([]float64, n+1)
	pmf[0] = 1
	for t := 1; t <= n; t++ {
		for k := t; k >= 1; k-- {
			pmf[k] = pmf[k]*(1-p) + pmf[k-1]*p
		}
		pmf[0] *= 1 - p
	}
	return pmf
}
