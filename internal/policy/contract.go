package policy

import (
	"errors"
	"fmt"
	"math"

	"disarcloud/internal/actuarial"
)

// Kind enumerates the supported contract types.
type Kind int

const (
	// PureEndowment pays the revalued insured sum at term if the insured is
	// alive and the contract in force (the paper's illustrative example).
	PureEndowment Kind = iota + 1
	// Endowment pays the revalued sum at the earlier of death and term.
	Endowment
	// TermInsurance pays the revalued sum on death within the term only.
	TermInsurance
	// WholeLife pays the revalued sum on death whenever it occurs (projected
	// to the engine's maximum horizon).
	WholeLife
	// Annuity pays the revalued annual amount at each year-end while the
	// insured is alive and in force.
	Annuity
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case PureEndowment:
		return "pure-endowment"
	case Endowment:
		return "endowment"
	case TermInsurance:
		return "term-insurance"
	case WholeLife:
		return "whole-life"
	case Annuity:
		return "annuity"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Contract is a representative contract: a set of policies with identical
// insurance parameters (same readjustment parameters, age, gender, term —
// Section III of the paper), collapsed into a single computational unit with
// multiplicity Count. The number of representative contracts is one of the
// characteristic parameters driving the execution time of a simulation.
type Contract struct {
	Kind          Kind
	Age           int              // insured age at valuation
	Gender        actuarial.Gender // mortality table selector
	Term          int              // remaining term in years
	InsuredSum    float64          // current insured sum C_0 (annual amount for annuities)
	Beta          float64          // participation coefficient, in (0,1)
	TechnicalRate float64          // minimum guaranteed technical rate i >= 0
	Count         int              // number of identical policies represented

	// Surrender penalty: on lapse in policy year t the policyholder receives
	// the revalued sum scaled by 1 - max(0, Penalty * (PenaltyYears - t) /
	// PenaltyYears). A zero PenaltyYears means no penalty.
	Penalty      float64
	PenaltyYears int
}

// Validate reports whether the contract parameters are admissible. Every
// float guard is written as "not inside the admissible range", so a NaN
// fails it; the two unbounded ranges reject +Inf by name.
func (c Contract) Validate() error {
	if c.Kind < PureEndowment || c.Kind > Annuity {
		return fmt.Errorf("policy: unknown contract kind %d", int(c.Kind))
	}
	if c.Age < 0 || c.Age > 120 {
		return fmt.Errorf("policy: implausible age %d", c.Age)
	}
	if c.Term <= 0 {
		return errors.New("policy: term must be positive")
	}
	if !(c.InsuredSum > 0) || math.IsInf(c.InsuredSum, 1) {
		return errors.New("policy: insured sum must be positive and finite")
	}
	if !(c.Beta > 0 && c.Beta < 1) {
		return errors.New("policy: participation coefficient must be in (0,1)")
	}
	if !(c.TechnicalRate >= 0) || math.IsInf(c.TechnicalRate, 1) {
		return errors.New("policy: technical rate must be non-negative and finite")
	}
	if c.Count <= 0 {
		return errors.New("policy: representative count must be positive")
	}
	if !(c.Penalty >= 0 && c.Penalty <= 1) {
		return errors.New("policy: penalty must be in [0,1]")
	}
	if c.PenaltyYears < 0 {
		return errors.New("policy: penalty years must be non-negative")
	}
	return nil
}

// SurrenderFactor returns the fraction of the revalued sum paid on lapse in
// policy year t (1-based).
func (c Contract) SurrenderFactor(year int) float64 {
	if c.PenaltyYears == 0 || year >= c.PenaltyYears {
		return 1
	}
	if year < 1 {
		year = 1
	}
	return 1 - c.Penalty*float64(c.PenaltyYears-year)/float64(c.PenaltyYears)
}

// FlowSchedule collects, per policy year (index k = year k+1), the benefit
// amount paid under each decrement cause, already scaled by the
// representative Count but NOT yet weighted by decrement probabilities —
// that weighting is the ALM engine's job (type-B EEB), which combines this
// schedule with the actuarial DecrementTable and pathwise discounting.
type FlowSchedule struct {
	Death     []float64 // paid at end of year on death during the year
	Surrender []float64 // paid at end of year on lapse during the year
	Survival  []float64 // paid at end of year while in force (annuities)
	Maturity  float64   // paid at term if still in force (endowment types)
}

// Flows evaluates the contract's benefit amounts along one simulated path of
// annual segregated-fund returns. fundReturns must cover at least Term years.
func (c Contract) Flows(fundReturns []float64) (FlowSchedule, error) {
	fs := FlowSchedule{
		Death:     make([]float64, c.Term),
		Surrender: make([]float64, c.Term),
		Survival:  make([]float64, c.Term),
	}
	if err := c.FlowsInto(fundReturns, &fs, make([]float64, c.Term)); err != nil {
		return FlowSchedule{}, err
	}
	return fs, nil
}

// FlowsInto is Flows writing into a caller-owned schedule whose slices must
// hold at least Term values each (they are resliced and cleared here), with
// sums as the revalued-sum scratch buffer. One reusable schedule serves
// every (contract, path) pair of a nested valuation, which is what keeps the
// per-path flow evaluation allocation-free.
func (c Contract) FlowsInto(fundReturns []float64, fs *FlowSchedule, sums []float64) error {
	if len(fundReturns) < c.Term {
		return fmt.Errorf("policy: %d fund returns for term %d", len(fundReturns), c.Term)
	}
	sums = RevaluedSumsInto(c.InsuredSum, c.Beta, c.TechnicalRate, fundReturns[:c.Term], sums)
	mult := float64(c.Count)
	fs.Death = fs.Death[:c.Term]
	fs.Surrender = fs.Surrender[:c.Term]
	fs.Survival = fs.Survival[:c.Term]
	clear(fs.Death)
	clear(fs.Surrender)
	clear(fs.Survival)
	fs.Maturity = 0
	for k := 0; k < c.Term; k++ {
		ct := sums[k]
		switch c.Kind {
		case PureEndowment:
			// Benefits only at maturity; death/lapse pay the surrender value
			// of accumulated revaluation only on lapse.
			fs.Surrender[k] = mult * ct * c.SurrenderFactor(k+1)
		case Endowment:
			fs.Death[k] = mult * ct
			fs.Surrender[k] = mult * ct * c.SurrenderFactor(k+1)
		case TermInsurance, WholeLife:
			fs.Death[k] = mult * ct
			// Protection business has no surrender value.
		case Annuity:
			fs.Survival[k] = mult * ct
		}
	}
	if c.Kind == PureEndowment || c.Kind == Endowment {
		fs.Maturity = mult * sums[c.Term-1]
	}
	return nil
}
