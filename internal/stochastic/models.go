// Package stochastic implements the financial risk-driver models used by the
// DISAR valuation engine: a Vasicek short-rate model, geometric Brownian
// motion equity and currency indices, and a CIR credit-intensity process.
// Drivers are simulated jointly with a user-supplied correlation structure,
// under either the real-world measure P (outer scenarios) or the risk-neutral
// measure Q (inner scenarios), as required by the nested Monte Carlo
// procedure of Section II of the paper.
package stochastic

import (
	"errors"
	"fmt"
	"math"
)

// Measure selects the probability measure a scenario is generated under.
type Measure int

const (
	// RealWorld is the physical measure P used for outer scenarios.
	RealWorld Measure = iota + 1
	// RiskNeutral is the pricing measure Q used for inner scenarios.
	RiskNeutral
)

// String implements fmt.Stringer.
func (m Measure) String() string {
	switch m {
	case RealWorld:
		return "P"
	case RiskNeutral:
		return "Q"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// VasicekParams parameterises the Ornstein-Uhlenbeck short-rate model
// dr = a(b - r)dt + sigma dW. MeanP is the long-run mean under the
// real-world measure; MeanQ under the risk-neutral one (they differ by the
// market price of interest-rate risk).
type VasicekParams struct {
	R0    float64 // initial short rate
	Speed float64 // mean-reversion speed a
	MeanP float64 // long-run mean b under P
	MeanQ float64 // long-run mean b under Q
	Sigma float64 // instantaneous volatility
}

// Validate reports whether the parameters define a well-posed model.
func (p VasicekParams) Validate() error {
	if p.Speed <= 0 {
		return errors.New("stochastic: Vasicek mean-reversion speed must be positive")
	}
	if p.Sigma < 0 {
		return errors.New("stochastic: Vasicek volatility must be non-negative")
	}
	return nil
}

// step advances the short rate by dt using the exact transition density of
// the OU process, so the discretisation is bias-free on any grid.
func (p VasicekParams) step(r, dt, z float64, m Measure) float64 {
	return p.stepper(dt).step(r, z, m)
}

// vasicekStepper caches the grid-constant terms of VasicekParams.step: on a
// fixed dt the decay factor and transition standard deviation never change,
// so the per-step exp/sqrt pair is paid once per generator instead of once
// per grid step. The cached quantities are computed by the EXACT expressions
// of the uncached step, keeping batched and scalar paths bit-identical.
type vasicekStepper struct {
	meanP, meanQ float64
	e            float64 // exp(-Speed*dt)
	oneMinusE    float64 // 1 - e
	sd           float64 // Sigma * sqrt((1-e^2)/(2*Speed))
}

func (p VasicekParams) stepper(dt float64) vasicekStepper {
	e := math.Exp(-p.Speed * dt)
	return vasicekStepper{
		meanP:     p.MeanP,
		meanQ:     p.MeanQ,
		e:         e,
		oneMinusE: 1 - e,
		sd:        p.Sigma * math.Sqrt((1-e*e)/(2*p.Speed)),
	}
}

func (v vasicekStepper) step(r, z float64, m Measure) float64 {
	mean := v.meanP
	if m == RiskNeutral {
		mean = v.meanQ
	}
	return r*v.e + mean*v.oneMinusE + v.sd*z
}

// GBMParams parameterises a geometric Brownian motion index
// dS = mu S dt + sigma S dW. Under Q the drift is replaced by the current
// short rate (risk-neutral drift), optionally reduced by a dividend yield.
type GBMParams struct {
	S0       float64 // initial index level
	Mu       float64 // drift under P
	Sigma    float64 // volatility
	Dividend float64 // continuous dividend yield
}

// Validate reports whether the parameters define a well-posed model.
func (p GBMParams) Validate() error {
	if p.S0 <= 0 {
		return errors.New("stochastic: GBM initial level must be positive")
	}
	if p.Sigma < 0 {
		return errors.New("stochastic: GBM volatility must be non-negative")
	}
	return nil
}

// step advances the index by dt with the exact log-normal transition. rate is
// the prevailing short rate, used as the drift under Q.
func (p GBMParams) step(s, rate, dt, z float64, m Measure) float64 {
	return p.stepper(dt).step(s, rate, z, m)
}

// gbmStepper caches the grid-constant terms of GBMParams.step (the variance
// correction and the sigma*sqrt(dt) diffusion scale), computed by the exact
// expressions of the uncached step so results stay bit-identical.
type gbmStepper struct {
	mu, dividend float64
	dt           float64
	halfVar      float64 // 0.5 * Sigma^2
	sigSqrtDt    float64 // Sigma * sqrt(dt)
}

func (p GBMParams) stepper(dt float64) gbmStepper {
	return gbmStepper{
		mu:        p.Mu,
		dividend:  p.Dividend,
		dt:        dt,
		halfVar:   0.5 * p.Sigma * p.Sigma,
		sigSqrtDt: p.Sigma * math.Sqrt(dt),
	}
}

func (g gbmStepper) step(s, rate, z float64, m Measure) float64 {
	drift := g.mu
	if m == RiskNeutral {
		drift = rate
	}
	drift -= g.dividend
	return s * math.Exp((drift-g.halfVar)*g.dt+g.sigSqrtDt*z)
}

// CIRParams parameterises the square-root credit-intensity process
// dl = a(b - l)dt + sigma sqrt(l) dW by full-truncation Euler: drift and
// diffusion see max(l, 0), so no square root of a negative. The state is not
// floored and dips below zero on volatile paths; consumers clamp it, as the
// fund's bond leg does (max(lambda_t, 0)).
type CIRParams struct {
	L0    float64 // initial intensity
	Speed float64 // mean-reversion speed a
	Mean  float64 // long-run mean b
	Sigma float64 // volatility of the square-root diffusion
}

// Validate reports whether the parameters define a well-posed model.
func (p CIRParams) Validate() error {
	if p.L0 < 0 {
		return errors.New("stochastic: CIR initial intensity must be non-negative")
	}
	if p.Speed <= 0 {
		return errors.New("stochastic: CIR mean-reversion speed must be positive")
	}
	if p.Mean < 0 || p.Sigma < 0 {
		return errors.New("stochastic: CIR mean and volatility must be non-negative")
	}
	return nil
}

// step advances the intensity by dt (full-truncation Euler).
func (p CIRParams) step(l, dt, z float64) float64 {
	lPos := max(l, 0)
	next := l + p.Speed*(p.Mean-lPos)*dt + p.Sigma*math.Sqrt(lPos*dt)*z
	return next
}

// ZeroCouponPrice returns the Vasicek analytic price at short rate r of a
// zero-coupon bond maturing in tau years, using the risk-neutral long-run
// mean. This prices the bond leg of the segregated fund consistently with
// the simulated rate paths.
func ZeroCouponPrice(p VasicekParams, r, tau float64) float64 {
	if tau <= 0 {
		return 1
	}
	a, b, sigma := p.Speed, p.MeanQ, p.Sigma
	bTau := (1 - math.Exp(-a*tau)) / a
	logA := (bTau-tau)*(b-sigma*sigma/(2*a*a)) - sigma*sigma*bTau*bTau/(4*a)
	return math.Exp(logA - bTau*r)
}

// ImpliedYield returns the continuously compounded yield implied by the
// Vasicek zero-coupon price for maturity tau.
func ImpliedYield(p VasicekParams, r, tau float64) float64 {
	return NewYieldCache(p, tau).Yield(r)
}

// YieldCache is one point of the Vasicek zero-coupon curve as a function of
// the short rate. The log price is logA - bTau*r, so the continuously
// compounded yield -log P / tau is AFFINE in r; intercept and slope depend
// only on the model parameters and the maturity and are computed once, by
// the expressions of ZeroCouponPrice. A rolling bond sleeve repricing the
// same curve point along every simulated path then pays one multiply-add per
// (path, year) and nothing from package math. Yield is the only
// implementation of the curve point (ImpliedYield routes through it, so the
// two are bitwise equal); against the priced form
// -log(ZeroCouponPrice(p, r, tau))/tau it is an algebraic identity, equal
// within rounding, not bit for bit.
type YieldCache struct {
	tau       float64
	intercept float64 // -logA / tau
	slope     float64 // bTau / tau
}

// NewYieldCache prepares the curve point for maturity tau.
func NewYieldCache(p VasicekParams, tau float64) YieldCache {
	c := YieldCache{tau: tau}
	if tau <= 0 {
		return c
	}
	a, b, sigma := p.Speed, p.MeanQ, p.Sigma
	bTau := (1 - math.Exp(-a*tau)) / a
	logA := (bTau-tau)*(b-sigma*sigma/(2*a*a)) - sigma*sigma*bTau*bTau/(4*a)
	c.intercept = -logA / tau
	c.slope = bTau / tau
	return c
}

// Yield returns the implied yield at short rate r; a non-positive maturity
// yields the short rate itself.
func (c YieldCache) Yield(r float64) float64 {
	if c.tau <= 0 {
		return r
	}
	return c.intercept + c.slope*r
}

// Affine returns the curve point's intercept and slope, Yield(r) =
// intercept + slope*r, for callers that fold several curve points into one
// affine function of the short rate (the fund's compiled bond leg).
func (c YieldCache) Affine() (intercept, slope float64) {
	if c.tau <= 0 {
		return 0, 1
	}
	return c.intercept, c.slope
}
