package actuarial

import (
	"fmt"
	"math"
)

// ScaledMortality multiplies a base law's one-year death probabilities by a
// constant factor, clamped to [0, 1]. It implements the Solvency II
// standard-formula biometric shocks: the longevity stress is a permanent
// 20% DECREASE of mortality rates (factor 0.8) and the mortality stress a
// permanent 15% increase (factor 1.15), applied when computing the
// corresponding SCR sub-modules.
type ScaledMortality struct {
	Base   MortalityModel
	Factor float64
}

// Validate reports whether the scaling is admissible: a base law and a
// finite, non-negative factor.
func (s ScaledMortality) Validate() error {
	if s.Base == nil {
		return fmt.Errorf("actuarial: scaled mortality without base law")
	}
	if !(s.Factor >= 0 && s.Factor <= math.MaxFloat64) {
		return fmt.Errorf("actuarial: mortality scaling %v must be finite and non-negative", s.Factor)
	}
	return nil
}

// AnnualDeathProb implements MortalityModel.
func (s ScaledMortality) AnnualDeathProb(age int) float64 {
	return clampProb(s.Factor * s.Base.AnnualDeathProb(age))
}

// LongevityStress returns the Solvency II longevity shock of the base law:
// a permanent 20% reduction of death probabilities at every age.
func LongevityStress(base MortalityModel) MortalityModel {
	return ScaledMortality{Base: base, Factor: 0.80}
}

// MortalityStress returns the Solvency II mortality shock: a permanent 15%
// increase of death probabilities at every age.
func MortalityStress(base MortalityModel) MortalityModel {
	return ScaledMortality{Base: base, Factor: 1.15}
}

// LapseStress scales a lapse model's probabilities by the given factor —
// the standard formula uses both an increase (+50%) and a decrease (-50%)
// of lapse rates, taking the more onerous.
type LapseStress struct {
	Base   LapseModel
	Factor float64
}

// AnnualLapseProb implements LapseModel.
func (s LapseStress) AnnualLapseProb(duration int) float64 {
	return clampProb(s.Factor * s.Base.AnnualLapseProb(duration))
}
