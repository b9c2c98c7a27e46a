package policy

import (
	"fmt"
	"math"

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

// Book is a block's contracts compiled for the walk, in contract order, on
// one or more decrement bases: one kernel per contract and basis. The bases
// of a book share every contract's readjustment chain — a, k and the term —
// which is what a life stress leaves alone: it moves only the weights.
type Book struct {
	bases [][]Kernel // per basis, one kernel per contract
}

// NewBook returns the one-basis book of a block's compiled contracts.
func NewBook(kernels []Kernel) Book {
	return Book{bases: [][]Kernel{kernels}}
}

// Add appends kernels to the book as another basis and reports true when
// they are the book's contracts on another decrement basis: as many
// contracts, each with a and k bitwise equal to the book's and the same
// term. Otherwise it leaves the book as it was and reports false.
func (b *Book) Add(kernels []Kernel) bool {
	own := b.bases[0]
	if len(kernels) != len(own) {
		return false
	}
	for c := range own {
		x, y := &own[c], &kernels[c]
		if math.Float64bits(x.a) != math.Float64bits(y.a) || math.Float64bits(x.k) != math.Float64bits(y.k) || len(x.w) != len(y.w) {
			return false
		}
	}
	b.bases = append(b.bases, kernels)
	return true
}

// Width returns the number of decrement bases the book holds.
func (b Book) Width() int { return len(b.bases) }

// AddPresentValues adds to pv[i], for every basis i, the sum of the
// contracts' present values along one path on that basis, added in contract
// order — bit for bit what a loop over the basis's kernels returns. Each
// contract's chain g and its discounted value disc[t]·g are computed once
// per year for up to three bases, and every basis accumulates dg·w[t] in a
// local of its own; Go evaluates disc[t]*g*w[t] left to right, so a basis
// gets the same operations in the same order as its kernel alone. Wider
// books are walked three bases at a time.
//
// It is the walk's one call per (book, inner path), and it stays a call on
// purpose: inlined into the walk's per-path function, the kernel's year
// counter is spilled to the stack and reloaded every contract-year. For the
// same reason a one-basis book runs its loop right here, in a frame with no
// other call, and several bases go through addShared.
func (b Book) AddPresentValues(returns, disc, pv []float64) {
	if len(b.bases) > 1 {
		b.addShared(returns, disc, pv)
		return
	}
	k0, total := b.bases[0], 0.0
	for c := range k0 {
		total += k0[c].PresentValue(returns, disc)
	}
	pv[0] += total
}

// addShared is AddPresentValues for a book of several bases.
func (b Book) addShared(returns, disc, pv []float64) {
	pv = pv[:len(b.bases)]
	for i := 0; i < len(b.bases); i += 3 {
		switch bs := b.bases[i:min(i+3, len(b.bases))]; len(bs) {
		case 1:
			Book{bases: bs}.AddPresentValues(returns, disc, pv[i:])
		case 2:
			s0, s1 := presentValues2(bs[0], bs[1], returns, disc)
			pv[i] += s0
			pv[i+1] += s1
		case 3:
			s0, s1, s2 := presentValues3(bs[0], bs[1], bs[2], returns, disc)
			pv[i] += s0
			pv[i+1] += s1
			pv[i+2] += s2
		}
	}
}

// presentValues2 is Kernel.PresentValue summed over two bases' kernels of
// the same contracts, one chain per contract.
func presentValues2(k0, k1 []Kernel, returns, disc []float64) (s0, s1 float64) {
	k1 = k1[:len(k0)]
	for c := range k0 {
		a, k, w0 := k0[c].a, k0[c].k, k0[c].w
		w1 := k1[c].w[:len(w0)]
		r, d := returns[:len(w0)], disc[:len(w0)]
		g, p0, p1 := 1.0, 0.0, 0.0
		for t, it := range r {
			g *= max(a*it+k, 1)
			dg := d[t] * g
			p0 += dg * w0[t]
			p1 += dg * w1[t]
		}
		s0 += p0
		s1 += p1
	}
	return s0, s1
}

// presentValues3 is presentValues2 over three bases.
func presentValues3(k0, k1, k2 []Kernel, returns, disc []float64) (s0, s1, s2 float64) {
	k1, k2 = k1[:len(k0)], k2[:len(k0)]
	for c := range k0 {
		a, k, w0 := k0[c].a, k0[c].k, k0[c].w
		w1, w2 := k1[c].w[:len(w0)], k2[c].w[:len(w0)]
		r, d := returns[:len(w0)], disc[:len(w0)]
		g, p0, p1, p2 := 1.0, 0.0, 0.0, 0.0
		for t, it := range r {
			g *= max(a*it+k, 1)
			dg := d[t] * g
			p0 += dg * w0[t]
			p1 += dg * w1[t]
			p2 += dg * w2[t]
		}
		s0 += p0
		s1 += p1
		s2 += p2
	}
	return s0, s1, s2
}
