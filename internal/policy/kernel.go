package policy

import (
	"fmt"

	"disarcloud/internal/actuarial"
)

// Kernel is a Contract compiled, together with its decrement table, for the
// valuation hot loop: everything that does not depend on the simulated path
// is worked out once, so that the per-(contract, path) work is one pass over
// the policy years with no schedule arrays and no struct copies.
//
// Contract.FlowsInto remains the public decomposition (benefit amounts per
// decrement cause, unweighted); PresentValue is that schedule weighted by the
// decrement probabilities and discounted, bit for bit — see PresentValue.
type Kernel struct {
	kind Kind
	term int

	sum, beta, technical float64
	onePlusTechnical     float64 // 1 + i, the divisor of Eq. (3)
	mult                 float64 // float64(Count)

	surrender             []float64 // SurrenderFactor(k+1) per policy year
	death, lapse, inForce []float64 // decrement columns, Term values each
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
	k := Kernel{
		kind:             c.Kind,
		term:             c.Term,
		sum:              c.InsuredSum,
		beta:             c.Beta,
		technical:        c.TechnicalRate,
		onePlusTechnical: 1 + c.TechnicalRate,
		mult:             float64(c.Count),
		surrender:        make([]float64, c.Term),
		death:            dec.Death[:c.Term],
		lapse:            dec.Lapse[:c.Term],
		inForce:          dec.InForce[:c.Term],
	}
	for t := range k.surrender {
		k.surrender[t] = c.SurrenderFactor(t + 1)
	}
	return k, nil
}

// revalued applies one year of Eq. (5), C_t = C_{t-1} (1 + rho_t), with
// ReadjustmentRate's operations in ReadjustmentRate's order, division
// included. The max of Eq. (3) is the language built-in, which orders signed
// zeros and propagates NaN exactly as math.Max does but compiles inline, so
// no assembly call is paid per policy year.
func revalued(c, beta, technical, onePlusTechnical, fundReturn float64) float64 {
	return c * (1 + (max(beta*fundReturn, technical)-technical)/onePlusTechnical)
}

// PresentValue returns the contract's probability-weighted, discounted
// benefit flows along one path: returns[t] is the fund return credited in
// policy year t+1 and disc[t] the discount factor of a payment at the end of
// that year; both must hold at least Term values.
//
// The result equals, bit for bit on finite inputs, weighting the FlowsInto
// schedule year by year,
//
//	pv += disc[t] * (qd[t]*Death[t] + ql[t]*Surrender[t] + p[t]*Survival[t])
//
// plus disc[T-1]*p[T-1]*Maturity: each kind fills at most two of the three
// schedules, the terms left out here are a finite non-negative probability
// times an exact +0 entry, x + 0 == x, and every product that remains keeps
// the association it has there.
func (k *Kernel) PresentValue(returns, disc []float64) float64 {
	n := k.term
	returns, disc = returns[:n], disc[:n]
	beta, tech, onePlus, mult := k.beta, k.technical, k.onePlusTechnical, k.mult
	c, pv := k.sum, 0.0
	switch k.kind {
	case Endowment:
		death, lapse, sf := k.death[:n], k.lapse[:n], k.surrender[:n]
		for t, it := range returns {
			c = revalued(c, beta, tech, onePlus, it)
			m := mult * c
			pv += disc[t] * (death[t]*m + lapse[t]*(m*sf[t]))
		}
		pv += disc[n-1] * k.inForce[n-1] * (mult * c)
	case PureEndowment:
		lapse, sf := k.lapse[:n], k.surrender[:n]
		for t, it := range returns {
			c = revalued(c, beta, tech, onePlus, it)
			m := mult * c
			pv += disc[t] * (lapse[t] * (m * sf[t]))
		}
		pv += disc[n-1] * k.inForce[n-1] * (mult * c)
	case TermInsurance, WholeLife:
		death := k.death[:n]
		for t, it := range returns {
			c = revalued(c, beta, tech, onePlus, it)
			pv += disc[t] * (death[t] * (mult * c))
		}
	case Annuity:
		inForce := k.inForce[:n]
		for t, it := range returns {
			c = revalued(c, beta, tech, onePlus, it)
			pv += disc[t] * (inForce[t] * (mult * c))
		}
	}
	return pv
}
