package loadgen

import (
	"errors"
	"fmt"
	"math"
)

// PhaseModel is a discretized Markov abstraction of a demand signal: the
// signal's rate range is cut into levels, each level is split into a rising
// and a falling branch, and the occupied (level, branch) pairs become the
// phases of a finite chain whose transition probabilities are the empirical
// frequencies observed along the signal. It is the bridge between the
// synthetic trace generators and the policy verifier in internal/verify: a
// scaling policy composed with a PhaseModel is a finite MDP whose
// properties value iteration computes exactly.
//
// The branch split matters for periodic signals: a sinusoid visits the same
// rate level twice per period, once rising and once falling, and collapsing
// the two visits into one phase would let the chain jump between the
// branches mid-cycle. Keeping the direction bit makes the discretized
// diurnal cycle near-deterministic.
type PhaseModel struct {
	// Rates is the mean arrival rate (per interval) of each phase.
	Rates []float64
	// Trans[i][j] is the per-interval probability of moving from phase i to
	// phase j; every row sums to 1 (a phase observed only at the end of the
	// signal self-loops).
	Trans [][]float64
	// Init is the initial phase distribution: a point mass on the phase the
	// signal starts in.
	Init []float64
	// PhaseOf maps each interval of the source signal to its phase — the
	// discretization audit trail cross-validation tests lean on.
	PhaseOf []int
}

// MaxPhaseLevels bounds the discretization grid: the verifier's state space
// is linear in the phase count, and a request for hundreds of levels is a
// typo, not a model.
const MaxPhaseLevels = 64

// DiscretizeRates builds a PhaseModel from a deterministic rate profile
// (e.g. Rates of a Spec). The construction is wholly deterministic in its
// inputs: equal-width rate levels over [min, max], direction from the sign
// of consecutive differences (plateaus continue the current branch), phases
// ordered by (level, branch), transition rows as empirical frequencies.
func DiscretizeRates(rates []float64, levels int) (PhaseModel, error) {
	if len(rates) < 2 {
		return PhaseModel{}, errors.New("loadgen: discretization needs at least 2 intervals")
	}
	if levels < 1 || levels > MaxPhaseLevels {
		return PhaseModel{}, fmt.Errorf("loadgen: phase levels %d outside [1, %d]", levels, MaxPhaseLevels)
	}
	lo, hi := rates[0], rates[0]
	for _, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return PhaseModel{}, fmt.Errorf("loadgen: rate %g is not a finite non-negative number", r)
		}
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	n := len(rates)
	width := (hi - lo) / float64(levels)
	level := func(r float64) int {
		if width <= 0 {
			return 0
		}
		l := int((r - lo) / width)
		if l >= levels {
			l = levels - 1 // r == hi lands in the top level
		}
		return l
	}
	// Phase keys: level*2 for the rising branch, level*2+1 for falling.
	// Plateaus keep the current branch so a flat stretch is one phase, not a
	// flip-flop between two.
	keys := make([]int, n)
	dir := 0 // +1 rising, -1 falling, 0 unknown (treated as rising)
	for i := range rates {
		if i > 0 {
			switch {
			case rates[i] > rates[i-1]:
				dir = 1
			case rates[i] < rates[i-1]:
				dir = -1
			}
		}
		branch := 0
		if dir < 0 {
			branch = 1
		}
		keys[i] = level(rates[i])*2 + branch
	}
	// Compact the occupied keys into dense phase indices, ordered by key so
	// the model is independent of visit order.
	index := make(map[int]int)
	for k := 0; k < levels*2; k++ {
		for _, key := range keys {
			if key == k {
				index[k] = len(index)
				break
			}
		}
	}
	p := len(index)
	m := PhaseModel{
		Rates:   make([]float64, p),
		Trans:   make([][]float64, p),
		Init:    make([]float64, p),
		PhaseOf: make([]int, n),
	}
	members := make([]float64, p)
	counts := make([][]float64, p)
	for i := range m.Trans {
		m.Trans[i] = make([]float64, p)
		counts[i] = make([]float64, p)
	}
	for i, key := range keys {
		ph := index[key]
		m.PhaseOf[i] = ph
		m.Rates[ph] += rates[i]
		members[ph]++
		if i+1 < n {
			counts[ph][index[keys[i+1]]]++
		}
	}
	for ph := range m.Rates {
		m.Rates[ph] /= members[ph]
		total := 0.0
		for _, c := range counts[ph] {
			total += c
		}
		if total == 0 {
			m.Trans[ph][ph] = 1 // only seen at the signal's end
			continue
		}
		for j, c := range counts[ph] {
			m.Trans[ph][j] = c / total
		}
	}
	m.Init[m.PhaseOf[0]] = 1
	return m, nil
}
