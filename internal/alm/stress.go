package alm

import (
	"disarcloud/internal/actuarial"
	"disarcloud/internal/eeb"
)

// Assumptions overrides the biometric models of a valuation — the hook for
// the Solvency II standard-formula stresses (longevity, mortality, lapse)
// computed as deltas of the best-estimate liability.
type Assumptions struct {
	// Mortality maps a gender to its mortality model; nil selects the
	// standard tables.
	Mortality func(actuarial.Gender) actuarial.MortalityModel
	// Lapse overrides the lapse model; nil selects DefaultLapse.
	Lapse actuarial.LapseModel
}

func (a Assumptions) mortality(g actuarial.Gender) actuarial.MortalityModel {
	if a.Mortality != nil {
		return a.Mortality(g)
	}
	return actuarial.ForGender(g)
}

func (a Assumptions) lapse() actuarial.LapseModel {
	if a.Lapse != nil {
		return a.Lapse
	}
	return DefaultLapse()
}

// NewValuerWithAssumptions is NewValuer with explicit biometric models.
// Identical seeds and assumptions yield identical results. A block-level
// Biometric basis composes multiplicatively on top of the resolved models,
// so campaign stresses stack cleanly with explicit assumption overrides.
func NewValuerWithAssumptions(b *eeb.Block, seed uint64, assume Assumptions) (*Valuer, error) {
	job, err := newJobValuer([]*eeb.Block{b}, seed, assume)
	if err != nil {
		return nil, err
	}
	return &Valuer{job: job}, nil
}

// BiometricStresses holds the standard-formula SCR sub-modules computed as
// stressed-BEL minus base-BEL (floored at zero: a stress that reduces the
// liability carries no capital requirement).
type BiometricStresses struct {
	BaseBEL      float64
	Longevity    float64 // 20% permanent mortality decrease
	Mortality    float64 // 15% permanent mortality increase
	LapseUp      float64 // +50% lapse rates
	LapseDown    float64 // -50% lapse rates
	LapseOnerous float64 // max(LapseUp, LapseDown)
}

// ValueBiometricStresses runs the base and the four stressed valuations on
// identical scenario streams (common random numbers), so the deltas are
// pure assumption effects with no Monte Carlo noise between them.
func ValueBiometricStresses(b *eeb.Block, seed uint64) (*BiometricStresses, error) {
	value := func(assume Assumptions) (float64, error) {
		v, err := NewValuerWithAssumptions(b, seed, assume)
		if err != nil {
			return 0, err
		}
		r, err := v.ValueNested()
		if err != nil {
			return 0, err
		}
		return r.BEL, nil
	}

	base, err := value(Assumptions{})
	if err != nil {
		return nil, err
	}
	longevity, err := value(Assumptions{Mortality: func(g actuarial.Gender) actuarial.MortalityModel {
		return actuarial.LongevityStress(actuarial.ForGender(g))
	}})
	if err != nil {
		return nil, err
	}
	mortality, err := value(Assumptions{Mortality: func(g actuarial.Gender) actuarial.MortalityModel {
		return actuarial.MortalityStress(actuarial.ForGender(g))
	}})
	if err != nil {
		return nil, err
	}
	lapseUp, err := value(Assumptions{Lapse: actuarial.LapseStress{Base: DefaultLapse(), Factor: 1.5}})
	if err != nil {
		return nil, err
	}
	lapseDown, err := value(Assumptions{Lapse: actuarial.LapseStress{Base: DefaultLapse(), Factor: 0.5}})
	if err != nil {
		return nil, err
	}

	floor0 := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	}
	out := &BiometricStresses{
		BaseBEL:   base,
		Longevity: floor0(longevity - base),
		Mortality: floor0(mortality - base),
		LapseUp:   floor0(lapseUp - base),
		LapseDown: floor0(lapseDown - base),
	}
	out.LapseOnerous = out.LapseUp
	if out.LapseDown > out.LapseOnerous {
		out.LapseOnerous = out.LapseDown
	}
	return out, nil
}
