package stochastic

import (
	"errors"
	"fmt"
	"math"
)

// Transform is a market shock expressed as an EXACT pathwise map on
// generated scenarios — the derivation rule that lets a stress campaign
// reuse one base scenario set instead of regenerating paths per module:
//
//   - RateShift is a parallel shift of the short-rate curve. Vasicek is
//     linear, so shifting R0/MeanP/MeanQ by delta shifts every rate point by
//     delta, multiplies the discount factor at year t by exp(-delta*t), and
//     (under Q, where the index drift is the short rate) adds delta*t of
//     log-drift to every equity and currency index.
//   - CreditFactor scales the credit intensity. CIR rescales exactly when L0
//     and Mean scale by c and Sigma by sqrt(c), which is how Config applies
//     it.
//   - EquityFactor and CurrencyFactor are INSTANTANEOUS t=0+ level shocks:
//     the index jumps to factor*level immediately after time 0 and evolves
//     from there (GBM is scale invariant, so that is a rescale of every grid
//     point except the time-0 reference). Keeping the time-0 point at the
//     pre-shock reference is what transmits the shock into a return-driven
//     segregated fund: the whole first-year return absorbs the jump, exactly
//     like an instantaneous revaluation of the asset book.
//
// The zero value is the identity. Factor fields equal to zero mean
// "unshocked" (factor 1), so partial literals shock only what they name.
type Transform struct {
	// RateShift is the parallel shift of the short-rate curve (absolute,
	// e.g. +0.01 for +100bp).
	RateShift float64
	// EquityFactor jumps every equity index at t=0+ (0 = unshocked).
	EquityFactor float64
	// CurrencyFactor jumps every currency index at t=0+ (0 = unshocked).
	CurrencyFactor float64
	// CreditFactor rescales the credit intensity (0 = unshocked).
	CreditFactor float64
}

// Drivers is a set of the market model's risk drivers: what a transform
// moves, and what a valuation reads (fund.Config.Drivers).
type Drivers uint8

const (
	// RateDriver is the short rate, and with it the discount curve.
	RateDriver Drivers = 1 << iota
	// EquityDriver is every equity index.
	EquityDriver
	// CurrencyDriver is every currency index.
	CurrencyDriver
	// CreditDriver is the credit intensity.
	CreditDriver
)

// factorOr1 normalises the "zero means unshocked" convention.
func factorOr1(f float64) float64 {
	if f == 0 {
		return 1
	}
	return f
}

// Drivers returns the risk drivers whose paths the transform moves. A rate
// shift moves the rate and, through the risk-neutral drift of the inner
// paths, every equity and currency index too; each factor other than 1 moves
// its own driver. The identity moves none.
func (t Transform) Drivers() Drivers {
	var d Drivers
	if t.RateShift != 0 {
		d |= RateDriver | EquityDriver | CurrencyDriver
	}
	if factorOr1(t.EquityFactor) != 1 {
		d |= EquityDriver
	}
	if factorOr1(t.CurrencyFactor) != 1 {
		d |= CurrencyDriver
	}
	if factorOr1(t.CreditFactor) != 1 {
		d |= CreditDriver
	}
	return d
}

// IsZero reports whether the transform is the identity.
func (t Transform) IsZero() bool {
	return t.RateShift == 0 &&
		factorOr1(t.EquityFactor) == 1 &&
		factorOr1(t.CurrencyFactor) == 1 &&
		factorOr1(t.CreditFactor) == 1
}

// Validate reports whether the transform maps admissible configurations to
// admissible configurations.
func (t Transform) Validate() error {
	if math.IsNaN(t.RateShift) || math.IsInf(t.RateShift, 0) {
		return errors.New("stochastic: transform rate shift must be finite")
	}
	if f := t.EquityFactor; f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("stochastic: transform equity factor %v must be positive", f)
	}
	if f := t.CurrencyFactor; f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("stochastic: transform currency factor %v must be positive", f)
	}
	if f := t.CreditFactor; f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("stochastic: transform credit factor %v must be non-negative", f)
	}
	return nil
}

// Config returns the shocked model configuration for the parameter-level
// part of the shock: the rate shift moves R0 and both long-run means, and
// the credit factor scales L0, Mean and (by square root) Sigma — for these,
// generating from the shocked config reproduces ApplyOuter of the base
// paths exactly. The instantaneous equity/currency jumps deliberately leave
// S0 untouched: rebasing S0 would rescale the whole path including the
// time-0 reference and never reach a return-driven fund — the jumps exist
// only pathwise, via ApplyOuter/ApplyInner.
func (t Transform) Config(cfg Config) Config {
	out := cfg
	out.Rate.R0 += t.RateShift
	out.Rate.MeanP += t.RateShift
	out.Rate.MeanQ += t.RateShift
	if c := factorOr1(t.CreditFactor); c != 1 {
		out.Credit.L0 *= c
		out.Credit.Mean *= c
		out.Credit.Sigma *= math.Sqrt(c)
	}
	return out
}

// ApplyOuter derives the shocked outer scenario (real-world, rooted at t=0):
// rates shift and credit rescales at every point, the discount integral
// picks up the rate shift, and the equity/currency jumps land from the first
// grid step on — the time-0 point stays at the pre-shock reference.
func (t Transform) ApplyOuter(s *Scenario) *Scenario { return t.apply(s, false) }

// ApplyInner derives the shocked inner scenario (risk-neutral, branched off
// a shocked outer state): the conditioning state already carries the jumped
// levels, so the equity/currency factors rescale every point, and the
// shifted short rate additionally contributes RateShift*t of risk-neutral
// log-drift to the index levels.
func (t Transform) ApplyInner(s *Scenario) *Scenario { return t.apply(s, true) }

// ApplyOuterBatch applies the outer-scenario shock to every path of the
// batch IN PLACE. The batch must hold freshly generated or copied paths
// private to the caller — never views into a shared scenario set.
func (t Transform) ApplyOuterBatch(b *Batch) { t.applyBatch(b, false) }

// ApplyInnerBatch is the branched (risk-neutral, conditioned) counterpart of
// ApplyOuterBatch.
func (t Transform) ApplyInnerBatch(b *Batch) { t.applyBatch(b, true) }

// applyBatch shocks the whole panel in place. The per-time-step multipliers
// (the discount shift and the risk-neutral drift compounding) depend only on
// the grid index, so they are computed once per panel — by the exact
// expressions of the scalar apply — and reused across every path, instead of
// being re-exponentiated per path per step. Element arithmetic is otherwise
// identical to apply, so a batched shock is bit-for-bit the per-path one.
func (t Transform) applyBatch(b *Batch, branched bool) {
	if t.IsZero() || b.n == 0 {
		return
	}
	eq := factorOr1(t.EquityFactor)
	fx := factorOr1(t.CurrencyFactor)
	cr := factorOr1(t.CreditFactor)

	steps := b.shape.steps
	discMul := b.mulDisc[:steps+1]
	for k := range discMul {
		discMul[k] = math.Exp(-t.RateShift * float64(k) * b.dt)
	}
	driftStep := 0.0
	if branched {
		driftStep = t.RateShift * b.dt
	}
	driftMul := b.mulDrift[:steps+1]
	if driftStep != 0 {
		for k := range driftMul {
			driftMul[k] = math.Exp(driftStep * float64(k))
		}
	}
	jumpPanel := func(path []float64, factor float64) {
		for k := range path {
			v := path[k]
			if k > 0 || branched {
				v *= factor
			}
			if driftStep != 0 {
				v *= driftMul[k]
			}
			path[k] = v
		}
	}
	for q := 0; q < b.n; q++ {
		s := &b.views[q]
		for k := range s.Rates {
			s.Rates[k] += t.RateShift
		}
		for k := range s.discount {
			s.discount[k] *= discMul[k]
		}
		for i := range s.Equities {
			jumpPanel(s.Equities[i], eq)
		}
		for i := range s.Currencies {
			jumpPanel(s.Currencies[i], fx)
		}
		for k := range s.Credit {
			s.Credit[k] *= cr
		}
	}
}

// apply is the shared body; branched selects the inner (risk-neutral,
// conditioned) semantics. The base scenario is never mutated — scenario sets
// are shared across concurrent jobs — and the identity transform returns it
// unchanged.
func (t Transform) apply(s *Scenario, branched bool) *Scenario {
	if t.IsZero() {
		return s
	}
	eq := factorOr1(t.EquityFactor)
	fx := factorOr1(t.CurrencyFactor)
	cr := factorOr1(t.CreditFactor)

	out := &Scenario{
		Dt:         s.Dt,
		Rates:      make([]float64, len(s.Rates)),
		Equities:   make([][]float64, len(s.Equities)),
		Currencies: make([][]float64, len(s.Currencies)),
		Credit:     make([]float64, len(s.Credit)),
		discount:   make([]float64, len(s.discount)),
	}
	for k, r := range s.Rates {
		out.Rates[k] = r + t.RateShift
	}
	for k, d := range s.discount {
		out.discount[k] = d * math.Exp(-t.RateShift*float64(k)*s.Dt)
	}
	// Under Q (branched inner paths) the index drift is the short rate, so
	// the rate shift compounds into the levels; under P the drift is the
	// model's Mu, untouched by the shift.
	driftStep := 0.0
	if branched {
		driftStep = t.RateShift * s.Dt
	}
	jumpPath := func(path []float64, factor float64) []float64 {
		outPath := make([]float64, len(path))
		for k, v := range path {
			if k > 0 || branched {
				v *= factor
			}
			if driftStep != 0 {
				v *= math.Exp(driftStep * float64(k))
			}
			outPath[k] = v
		}
		return outPath
	}
	for i, path := range s.Equities {
		out.Equities[i] = jumpPath(path, eq)
	}
	for i, path := range s.Currencies {
		out.Currencies[i] = jumpPath(path, fx)
	}
	for k, l := range s.Credit {
		out.Credit[k] = l * cr
	}
	return out
}
