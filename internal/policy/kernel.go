package policy

import (
	"fmt"

	"disarcloud/internal/actuarial"
)

// Kernel is a Contract compiled, together with its decrement table, for the
// valuation hot loop. The probability-weighted benefit of every kind is
// linear in the revalued sum C_t = C_0 * Phi_t, and what multiplies C_t —
// multiplicity, decrement probabilities, surrender factor, the maturity
// payment — does not depend on the simulated path, so Compile folds all of it
// into one weight per policy year:
//
//	Endowment      w[t] = m * (qd[t] + ql[t]*sf[t])
//	PureEndowment  w[t] = m * ql[t]*sf[t]
//	TermInsurance,
//	WholeLife      w[t] = m * qd[t]
//	Annuity        w[t] = m * p[t]
//
// with m = Count * InsuredSum, and the endowment kinds adding m * p[T-1] to
// w[T-1]. Eq. (3)'s yearly factor 1 + (max(beta*I, i) - i)/(1+i) is
// max(a*I + k, 1) with a = beta/(1+i), k = 1/(1+i). PresentValue is then one
// kind-free pass over the policy years.
//
// Contract.FlowsInto remains the public decomposition (benefit amounts per
// decrement cause, unweighted) and the reference PresentValue is tested
// against: the two are the same real number written with different
// associations, equal within a few ulp, not bit for bit (DESIGN.md "Numerics
// policy").
type Kernel struct {
	a, k float64   // Eq. (3) as max(a*I + k, 1)
	w    []float64 // per policy year; its length is the term
}

// Compile prepares the contract for PresentValue on the given decrement
// table, which must span at least Term years.
func (c Contract) Compile(dec *actuarial.DecrementTable) (Kernel, error) {
	if err := c.Validate(); err != nil {
		return Kernel{}, err
	}
	if dec == nil || len(dec.Death) < c.Term || len(dec.Lapse) < c.Term || len(dec.InForce) < c.Term {
		return Kernel{}, fmt.Errorf("policy: decrement table shorter than term %d", c.Term)
	}
	m := float64(c.Count) * c.InsuredSum
	w := make([]float64, c.Term)
	for t := range w {
		switch c.Kind {
		case Endowment:
			w[t] = m * (dec.Death[t] + dec.Lapse[t]*c.SurrenderFactor(t+1))
		case PureEndowment:
			w[t] = m * (dec.Lapse[t] * c.SurrenderFactor(t+1))
		case TermInsurance, WholeLife:
			w[t] = m * dec.Death[t]
		case Annuity:
			w[t] = m * dec.InForce[t]
		}
	}
	if c.Kind == Endowment || c.Kind == PureEndowment {
		w[c.Term-1] += m * dec.InForce[c.Term-1]
	}
	return Kernel{a: c.Beta / (1 + c.TechnicalRate), k: 1 / (1 + c.TechnicalRate), w: w}, nil
}

// PresentValue returns the contract's probability-weighted, discounted
// benefit flows along one path: returns[t] is the fund return credited in
// policy year t+1 and disc[t] the discount factor of a payment at the end of
// that year; both must hold at least Term values.
//
// g is the cumulative readjustment factor Phi_t of Eq. (2). The max is the
// language built-in, which orders signed zeros and propagates NaN exactly as
// math.Max does but compiles inline: a year below the guarantee leaves g
// untouched, exactly, and a NaN or +Inf return poisons every later year as
// it does in RevaluedSumsInto.
func (kn *Kernel) PresentValue(returns, disc []float64) float64 {
	a, k, w := kn.a, kn.k, kn.w
	returns, disc = returns[:len(w)], disc[:len(w)]
	g, pv := 1.0, 0.0
	for t, it := range returns {
		g *= max(a*it+k, 1)
		pv += disc[t] * g * w[t]
	}
	return pv
}

// Book is a block's contracts compiled for the walk, in contract order.
type Book []Kernel

// PresentValue returns the sum of the contracts' present values along one
// path, added in contract order — bit for bit what a loop over the kernels
// returns. It is the walk's one call per (block, inner path), and it stays a
// call on purpose: inlined into the walk's per-path function, the kernel's
// year counter is spilled to the stack and reloaded every contract-year.
func (b Book) PresentValue(returns, disc []float64) float64 {
	total := 0.0
	for c := range b {
		total += b[c].PresentValue(returns, disc)
	}
	return total
}
