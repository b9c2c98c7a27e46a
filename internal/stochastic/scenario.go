package stochastic

import (
	"errors"
	"fmt"
	"math"

	"disarcloud/internal/finmath"
)

// Config describes the joint risk-driver model of a valuation: one Vasicek
// short rate, any number of GBM equity indices, any number of GBM currency
// indices, and one CIR credit intensity. Corr, when non-nil, is the
// correlation matrix of the Brownian shocks ordered as
// [rate, equities..., currencies..., credit]; nil means independence.
type Config struct {
	Horizon      int // simulation horizon in years (policy max term)
	StepsPerYear int // time-grid granularity; 1 = annual steps
	Rate         VasicekParams
	Equities     []GBMParams
	Currencies   []GBMParams
	Credit       CIRParams
	Corr         *finmath.Matrix
}

// NumFactors returns the total number of stochastic risk factors.
func (c Config) NumFactors() int {
	return 1 + len(c.Equities) + len(c.Currencies) + 1
}

// Validate reports whether the configuration is well-posed.
func (c Config) Validate() error {
	if c.Horizon <= 0 {
		return errors.New("stochastic: horizon must be positive")
	}
	if c.StepsPerYear <= 0 {
		return errors.New("stochastic: steps per year must be positive")
	}
	if err := c.Rate.Validate(); err != nil {
		return err
	}
	for i, e := range c.Equities {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("equity %d: %w", i, err)
		}
	}
	for i, fx := range c.Currencies {
		if err := fx.Validate(); err != nil {
			return fmt.Errorf("currency %d: %w", i, err)
		}
	}
	if err := c.Credit.Validate(); err != nil {
		return err
	}
	if c.Corr != nil {
		n := c.NumFactors()
		if c.Corr.Rows() != n || c.Corr.Cols() != n {
			return fmt.Errorf("stochastic: correlation matrix is %dx%d, want %dx%d",
				c.Corr.Rows(), c.Corr.Cols(), n, n)
		}
		for i := 0; i < n; i++ {
			if d := c.Corr.At(i, i); math.Abs(d-1) > 1e-9 {
				return fmt.Errorf("stochastic: correlation matrix diagonal entry %d is %v, want 1", i, d)
			}
			for j := 0; j < i; j++ {
				if math.Abs(c.Corr.At(i, j)-c.Corr.At(j, i)) > 1e-9 {
					return fmt.Errorf("stochastic: correlation matrix is not symmetric at (%d,%d)", i, j)
				}
			}
		}
		// Catch inadmissible correlation structures here with a clear error
		// instead of letting them surface later as a Cholesky failure at
		// generator construction.
		if _, err := c.Corr.Cholesky(); err != nil {
			return fmt.Errorf("stochastic: correlation matrix is not positive definite: %w", err)
		}
	}
	return nil
}

// Scenario is one simulated joint trajectory of all risk drivers on the
// configured time grid. Index 0 of every path is the time-0 value; index k
// is time k*dt with dt = 1/StepsPerYear.
type Scenario struct {
	Dt         float64
	Rates      []float64   // short-rate path
	Equities   [][]float64 // per-equity index paths
	Currencies [][]float64 // per-currency index paths
	Credit     []float64   // credit-intensity path
	discount   []float64   // cumulative pathwise discount factors
}

// Steps returns the number of time steps in the scenario (excluding t=0).
func (s *Scenario) Steps() int { return len(s.Rates) - 1 }

// RateAtYear returns the short rate at the grid point closest to year t.
func (s *Scenario) RateAtYear(t float64) float64 {
	return s.Rates[s.index(t)]
}

// Discount returns the pathwise stochastic discount factor
// exp(-integral of r from 0 to t) evaluated on the grid.
func (s *Scenario) Discount(t float64) float64 {
	return s.discount[s.index(t)]
}

// DiscountsAt writes the pathwise discount factor at each grid index of idx
// into out, which must hold len(idx) values, and returns it — Discount for a
// caller that already knows the grid indices of its years.
func (s *Scenario) DiscountsAt(idx []int, out []float64) []float64 {
	out = out[:len(idx)]
	for k, i := range idx {
		out[k] = s.discount[i]
	}
	return out
}

// DiscountBetween returns the discount factor between grid years t1 <= t2.
func (s *Scenario) DiscountBetween(t1, t2 float64) float64 {
	return s.discount[s.index(t2)] / s.discount[s.index(t1)]
}

// IndexOfYear returns the grid index closest to year t, clamped to the
// scenario's range.
func (s *Scenario) IndexOfYear(t float64) int { return s.index(t) }

func (s *Scenario) index(t float64) int {
	i := int(math.Round(t / s.Dt))
	if i < 0 {
		i = 0
	}
	if i >= len(s.Rates) {
		i = len(s.Rates) - 1
	}
	return i
}

// Generator produces correlated scenarios from a Config. It is safe for
// concurrent use as long as each goroutine passes its own RNG (and, for the
// Into variants, its own scratch buffers).
type Generator struct {
	cfg  Config
	chol *finmath.Matrix // nil when drivers are independent

	// Grid-constant stepper caches: the time grid is fixed per generator, so
	// the per-step exp/sqrt constants of every driver are paid once here
	// instead of once per simulated step. All cached values are computed by
	// the exact per-step expressions, keeping results bit-identical.
	steps int
	dt    float64
	rate  vasicekStepper
	eqs   []gbmStepper
	fxs   []gbmStepper
}

// NewGenerator validates cfg and prepares the correlation factorisation.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dt := 1.0 / float64(cfg.StepsPerYear)
	g := &Generator{
		cfg:   cfg,
		steps: cfg.Horizon * cfg.StepsPerYear,
		dt:    dt,
		rate:  cfg.Rate.stepper(dt),
		eqs:   make([]gbmStepper, len(cfg.Equities)),
		fxs:   make([]gbmStepper, len(cfg.Currencies)),
	}
	for i, e := range cfg.Equities {
		g.eqs[i] = e.stepper(dt)
	}
	for i, fx := range cfg.Currencies {
		g.fxs[i] = fx.stepper(dt)
	}
	if cfg.Corr != nil {
		chol, err := cfg.Corr.Cholesky()
		if err != nil {
			return nil, fmt.Errorf("stochastic: correlation matrix: %w", err)
		}
		g.chol = chol
	}
	return g, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Generate simulates one scenario under the given measure starting from the
// model's time-0 state.
func (g *Generator) Generate(rng *finmath.RNG, m Measure) *Scenario {
	return g.GenerateFrom(rng, m, nil, 0)
}

// GenerateFrom simulates a scenario under measure m. When from is non-nil,
// the simulation is conditioned on the state of from at year fromYear — this
// is how inner risk-neutral scenarios branch off an outer real-world path at
// t=1 in the nested procedure (conditioning on the filtration F1).
func (g *Generator) GenerateFrom(rng *finmath.RNG, m Measure, from *Scenario, fromYear float64) *Scenario {
	nEq, nFx := len(g.cfg.Equities), len(g.cfg.Currencies)
	nFac := g.cfg.NumFactors()

	s := &Scenario{
		Dt:         g.dt,
		Rates:      make([]float64, g.steps+1),
		Equities:   make([][]float64, nEq),
		Currencies: make([][]float64, nFx),
		Credit:     make([]float64, g.steps+1),
		discount:   make([]float64, g.steps+1),
	}
	for i := range s.Equities {
		s.Equities[i] = make([]float64, g.steps+1)
	}
	for i := range s.Currencies {
		s.Currencies[i] = make([]float64, g.steps+1)
	}
	g.generateInto(rng, m, from, fromYear, s, make([]float64, 2*nFac))
	return s
}

// generateInto simulates a scenario into s, whose driver slices must already
// be sized steps+1 (panel views or freshly allocated paths alike). scratch
// must hold at least 2*NumFactors values: the per-step shock vector, one
// finmath.RNG.NormFill (into the raw half under a correlation structure).
// The stepping arithmetic is shared by every generation entry point, so
// batched panel fills and one-shot Generate calls are bit-identical.
func (g *Generator) generateInto(rng *finmath.RNG, m Measure, from *Scenario, fromYear float64, s *Scenario, scratch []float64) {
	cfg := g.cfg
	steps := g.steps
	nEq := len(cfg.Equities)
	nFac := cfg.NumFactors()
	z, raw := scratch[:nFac], scratch[nFac:2*nFac]

	s.Dt = g.dt
	// Initial state: model time-0 values, or the conditioning state.
	if from == nil {
		s.Rates[0] = cfg.Rate.R0
		for i, e := range cfg.Equities {
			s.Equities[i][0] = e.S0
		}
		for i, fx := range cfg.Currencies {
			s.Currencies[i][0] = fx.S0
		}
		s.Credit[0] = cfg.Credit.L0
	} else {
		idx := from.index(fromYear)
		s.Rates[0] = from.Rates[idx]
		for i := range s.Equities {
			s.Equities[i][0] = from.Equities[i][idx]
		}
		for i := range s.Currencies {
			s.Currencies[i][0] = from.Currencies[i][idx]
		}
		s.Credit[0] = from.Credit[idx]
	}
	s.discount[0] = 1

	rates, credit, disc := s.Rates, s.Credit, s.discount
	for k := 1; k <= steps; k++ {
		if g.chol != nil {
			finmath.CorrelatedNormalsInto(rng, g.chol, raw, z)
		} else {
			rng.NormFill(z)
		}
		rPrev := rates[k-1]
		rates[k] = g.rate.step(rPrev, z[0], m)
		for i := range g.eqs {
			p := s.Equities[i]
			p[k] = g.eqs[i].step(p[k-1], rPrev, z[1+i], m)
		}
		for i := range g.fxs {
			p := s.Currencies[i]
			p[k] = g.fxs[i].step(p[k-1], rPrev, z[1+nEq+i], m)
		}
		credit[k] = cfg.Credit.step(credit[k-1], g.dt, z[nFac-1])
		// Trapezoidal accumulation of the discount integral.
		disc[k] = disc[k-1] * math.Exp(-0.5*(rPrev+rates[k])*g.dt)
	}
}
