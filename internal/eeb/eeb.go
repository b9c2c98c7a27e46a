// Package eeb defines the Elementary Elaboration Blocks of the DISAR
// architecture: the units of work DiMaS schedules onto computing units. An
// EEB is "a set of elaborations identified by common characteristics that
// make them identical from the point of view of risks" (Section II). Two
// types exist: type A (actuarial valuation — probabilized cash flows) and
// type B (ALM valuation — market-consistent values), the latter being the
// dominant cost and the one distributed to the cloud.
package eeb

import (
	"errors"
	"fmt"
	"math"

	"disarcloud/internal/fund"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
)

// Type distinguishes the two elaboration block kinds.
type Type int

const (
	// ActuarialValuation is a type-A block (DiActEng work).
	ActuarialValuation Type = iota + 1
	// ALMValuation is a type-B block (DiAlmEng work) — the Monte Carlo heavy
	// part distributed to the cloud.
	ALMValuation
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case ActuarialValuation:
		return "A"
	case ALMValuation:
		return "B"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// CharacteristicParams are the features the paper found to induce the
// highest execution-time variability (Section III): the number of
// representative contracts, the maximum time horizon of the policies, the
// segregated-fund asset number and the number of financial risk factors.
// The Monte Carlo sample sizes complete the workload description.
type CharacteristicParams struct {
	RepresentativeContracts int
	MaxHorizon              int
	FundAssets              int
	RiskFactors             int
	OuterPaths              int // n_P
	InnerPaths              int // n_Q
}

// Validate reports whether the parameters describe a non-degenerate block.
func (p CharacteristicParams) Validate() error {
	if p.RepresentativeContracts <= 0 || p.MaxHorizon <= 0 || p.FundAssets <= 0 ||
		p.RiskFactors <= 0 || p.OuterPaths <= 0 || p.InnerPaths <= 0 {
		return errors.New("eeb: all characteristic parameters must be positive")
	}
	return nil
}

// Features returns the parameters as an ML feature vector in a fixed order:
// [contracts, horizon, assets, riskFactors, outer, inner].
func (p CharacteristicParams) Features() []float64 {
	return []float64{
		float64(p.RepresentativeContracts),
		float64(p.MaxHorizon),
		float64(p.FundAssets),
		float64(p.RiskFactors),
		float64(p.OuterPaths),
		float64(p.InnerPaths),
	}
}

// FeatureNames returns the names matching Features positions.
func FeatureNames() []string {
	return []string{"contracts", "horizon", "assets", "riskfactors", "outer", "inner"}
}

// Complexity is the serial work estimate DiMaS uses to schedule blocks, in
// abstract operation units: each of the outer x inner simulated trajectories
// walks MaxHorizon years, and each year touches every representative
// contract and every fund asset plus the risk-driver updates.
func (p CharacteristicParams) Complexity() float64 {
	perYear := float64(p.RepresentativeContracts) + float64(p.FundAssets) +
		3*float64(p.RiskFactors)
	return float64(p.OuterPaths) * float64(p.InnerPaths) *
		float64(p.MaxHorizon) * perYear
}

// Biometric scales the decrement assumptions of a valuation — the workload-
// description side of the Solvency II life stresses (mortality +15%, lapse
// ±50%, longevity -20%). Factors multiply the standard assumptions; a zero
// field means "unshocked" (factor 1), so the zero value is the best-estimate
// basis.
type Biometric struct {
	// MortalityFactor scales every one-year death probability.
	MortalityFactor float64
	// LapseFactor scales every one-year lapse probability.
	LapseFactor float64
}

// Validate reports whether the scaling factors are admissible: finite and
// non-negative. NaN would poison every decrement probability and +Inf clamp
// every one to 1.
func (b Biometric) Validate() error {
	if f := b.MortalityFactor; !(f >= 0 && f <= math.MaxFloat64) {
		return fmt.Errorf("eeb: mortality factor %v must be finite and non-negative", f)
	}
	if f := b.LapseFactor; !(f >= 0 && f <= math.MaxFloat64) {
		return fmt.Errorf("eeb: lapse factor %v must be finite and non-negative", f)
	}
	return nil
}

// MortalityScale returns the effective mortality factor (zero means 1).
func (b Biometric) MortalityScale() float64 {
	if b.MortalityFactor == 0 {
		return 1
	}
	return b.MortalityFactor
}

// LapseScale returns the effective lapse factor (zero means 1).
func (b Biometric) LapseScale() float64 {
	if b.LapseFactor == 0 {
		return 1
	}
	return b.LapseFactor
}

// IsZero reports whether the biometric basis is the unshocked best estimate.
func (b Biometric) IsZero() bool {
	return b.MortalityScale() == 1 && b.LapseScale() == 1
}

// Compose stacks another scaling on top of this one (factors multiply).
func (b Biometric) Compose(o Biometric) Biometric {
	return Biometric{
		MortalityFactor: b.MortalityScale() * o.MortalityScale(),
		LapseFactor:     b.LapseScale() * o.LapseScale(),
	}
}

// Block is one schedulable elaboration unit.
type Block struct {
	ID        string
	Type      Type
	Portfolio *policy.Portfolio
	Fund      fund.Config
	Market    stochastic.Config
	Outer     int // n_P real-world paths (type B)
	Inner     int // n_Q risk-neutral paths per outer path (type B)
	// Biometric scales the decrement assumptions (Solvency II life stresses);
	// the zero value is the best-estimate basis.
	Biometric Biometric
	// Scenarios, when non-nil, supplies the block's scenario paths — shared
	// or derived scenario sets of a stress campaign. Nil generates fresh
	// paths from the valuation seed.
	Scenarios stochastic.Source
	// ScenarioRef, when non-nil, is the serializable recipe behind Scenarios:
	// what a remote computing unit needs to rebuild an equivalent source on
	// its side of the wire (a live Source cannot travel). Blocks carrying only
	// a live Source without a ref are pinned to in-process execution.
	ScenarioRef *stochastic.Ref
	// Buffers, when non-nil, is the panel pool the block's valuation draws
	// its batched scenario buffers from — shared across the blocks and jobs
	// of a service so the steady state allocates no panel memory. Nil uses
	// the process-wide shared pool.
	Buffers *stochastic.BatchPool
}

// Validate reports whether the block is well-formed and internally
// consistent.
func (b *Block) Validate() error {
	if b.ID == "" {
		return errors.New("eeb: block without ID")
	}
	if b.Type != ActuarialValuation && b.Type != ALMValuation {
		return fmt.Errorf("eeb: block %s has unknown type %d", b.ID, int(b.Type))
	}
	if b.Portfolio == nil {
		return fmt.Errorf("eeb: block %s has no portfolio", b.ID)
	}
	if err := b.Portfolio.Validate(); err != nil {
		return fmt.Errorf("eeb: block %s: %w", b.ID, err)
	}
	if err := b.Market.Validate(); err != nil {
		return fmt.Errorf("eeb: block %s: %w", b.ID, err)
	}
	if err := b.Fund.Validate(b.Market); err != nil {
		return fmt.Errorf("eeb: block %s: %w", b.ID, err)
	}
	if err := b.Biometric.Validate(); err != nil {
		return fmt.Errorf("eeb: block %s: %w", b.ID, err)
	}
	if b.Type == ALMValuation && (b.Outer <= 0 || b.Inner <= 0) {
		return fmt.Errorf("eeb: ALM block %s needs positive outer/inner path counts", b.ID)
	}
	if b.Market.Horizon < b.Portfolio.MaxTerm() {
		return fmt.Errorf("eeb: block %s market horizon %d shorter than max term %d",
			b.ID, b.Market.Horizon, b.Portfolio.MaxTerm())
	}
	return nil
}

// Params extracts the characteristic parameters of the block.
func (b *Block) Params() CharacteristicParams {
	return CharacteristicParams{
		RepresentativeContracts: b.Portfolio.NumRepresentative(),
		MaxHorizon:              b.Portfolio.MaxTerm(),
		FundAssets:              b.Fund.NumAssets(),
		RiskFactors:             b.Market.NumFactors(),
		OuterPaths:              b.Outer,
		InnerPaths:              b.Inner,
	}
}

// Complexity returns the block's serial work estimate.
func (b *Block) Complexity() float64 { return b.Params().Complexity() }
