// Package fund models the segregated fund ("gestione separata") backing
// Italian profit-sharing policies. The key feature, stressed in Section II
// of the paper, is that the credited return I_t is computed on BOOK values,
// not market values, so the fund manager can strategically smooth returns by
// choosing when to realise capital gains. The package implements a bond +
// equity asset mix whose market returns are driven by the stochastic
// scenario, a gain-realisation management strategy, and the resulting
// book-value return path I_1..I_T of Eq. (4).
package fund

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"disarcloud/internal/stochastic"
)

// AssetKind distinguishes the sleeves of the segregated fund.
type AssetKind int

const (
	// GovernmentBond is a default-free rolling bond sleeve priced off the
	// Vasicek short rate.
	GovernmentBond AssetKind = iota + 1
	// CorporateBond is a bond sleeve that additionally carries credit risk:
	// expected default losses proportional to the CIR intensity.
	CorporateBond
	// Equity tracks one of the scenario's GBM equity indices.
	Equity
)

// String implements fmt.Stringer.
func (k AssetKind) String() string {
	switch k {
	case GovernmentBond:
		return "govt-bond"
	case CorporateBond:
		return "corp-bond"
	case Equity:
		return "equity"
	default:
		return fmt.Sprintf("AssetKind(%d)", int(k))
	}
}

// Asset is one sleeve of the segregated fund.
type Asset struct {
	Kind             AssetKind
	Weight           float64 // target allocation weight; weights must sum to 1
	Maturity         float64 // rolling bond maturity in years (bond kinds)
	EquityIndex      int     // index into Scenario.Equities (Equity kind)
	LossGivenDefault float64 // fraction lost on default (CorporateBond kind)
	// Currency denominates the sleeve in a foreign currency: 1-based index
	// into Scenario.Currencies, 0 for the domestic (euro) book. A foreign
	// sleeve's domestic return compounds the local asset return with the
	// currency index return, which is what gives the Solvency II FX stress
	// module a real transmission channel into the fund.
	Currency int
}

// Config describes a segregated fund and its management strategy.
type Config struct {
	Name   string
	Assets []Asset

	// TargetReturn is the book return the manager steers toward by
	// realising or deferring capital gains.
	TargetReturn float64
	// SmoothingFraction in [0,1] is the share of excess market return
	// stashed into the unrealised-gain buffer in good years (0 disables
	// smoothing and book returns equal market returns).
	SmoothingFraction float64
	// MaxBuffer caps the unrealised-gain buffer as a fraction of fund value.
	MaxBuffer float64
}

// Validate reports whether the fund configuration is admissible against the
// given market model (equity indices must exist). Float guards are written
// as "not inside the admissible range", so a NaN fails them.
func (c Config) Validate(market stochastic.Config) error {
	if len(c.Assets) == 0 {
		return errors.New("fund: no assets")
	}
	total := 0.0
	for i, a := range c.Assets {
		if !(a.Weight >= 0) {
			return fmt.Errorf("fund: asset %d has negative weight", i)
		}
		total += a.Weight
		switch a.Kind {
		case GovernmentBond, CorporateBond:
			if !(a.Maturity > 0) || math.IsInf(a.Maturity, 1) {
				return fmt.Errorf("fund: bond asset %d needs positive finite maturity", i)
			}
			if a.Kind == CorporateBond && !(a.LossGivenDefault >= 0 && a.LossGivenDefault <= 1) {
				return fmt.Errorf("fund: asset %d LGD outside [0,1]", i)
			}
		case Equity:
			if a.EquityIndex < 0 || a.EquityIndex >= len(market.Equities) {
				return fmt.Errorf("fund: asset %d references equity %d of %d",
					i, a.EquityIndex, len(market.Equities))
			}
		default:
			return fmt.Errorf("fund: asset %d has unknown kind %d", i, int(a.Kind))
		}
		if a.Currency < 0 || a.Currency > len(market.Currencies) {
			return fmt.Errorf("fund: asset %d references currency %d of %d",
				i, a.Currency, len(market.Currencies))
		}
	}
	if !(math.Abs(total-1) <= 1e-9) {
		return fmt.Errorf("fund: weights sum to %v, want 1", total)
	}
	if math.IsNaN(c.TargetReturn) || math.IsInf(c.TargetReturn, 0) {
		return errors.New("fund: target return must be finite")
	}
	if !(c.SmoothingFraction >= 0 && c.SmoothingFraction <= 1) {
		return errors.New("fund: smoothing fraction outside [0,1]")
	}
	if !(c.MaxBuffer >= 0) {
		return errors.New("fund: negative buffer cap")
	}
	return nil
}

// NumAssets returns the number of fund sleeves — the "segregated fund asset
// number" characteristic parameter of the ML models.
func (c Config) NumAssets() int { return len(c.Assets) }

// Drivers returns the risk drivers the fund's sleeves read: the short rate
// for a bond sleeve, the credit intensity for a corporate one, the equity
// indices for an equity sleeve, and the currency indices for any sleeve
// denominated abroad. A scenario shock that moves none of them leaves every
// return the fund credits where it was, bit for bit. (A bond leg with no
// corporate sleeve reads the intensity only to multiply it by zero.)
func (c Config) Drivers() stochastic.Drivers {
	var d stochastic.Drivers
	for _, a := range c.Assets {
		switch a.Kind {
		case GovernmentBond:
			d |= stochastic.RateDriver
		case CorporateBond:
			d |= stochastic.RateDriver | stochastic.CreditDriver
		case Equity:
			d |= stochastic.EquityDriver
		}
		if a.Currency != 0 {
			d |= stochastic.CurrencyDriver
		}
	}
	return d
}

// Fund evaluates book-value return paths along scenarios. What does not
// depend on the path is worked out once, in New:
//
// Bond sleeves fold into one bondLeg per denomination currency, so a bond
// book costs one multiply-add chain per (path, year) however many sleeves it
// is split into; equity sleeves each track their own index. The per-sleeve
// form survives only as the test reference (fund_test.go): the same real
// number associated differently, equal within rounding, not bit for bit
// (DESIGN.md "Numerics policy").
//
// The grid index of year t depends on the scenario only through its grid,
// and the scenarios a fund is built for share the market's: years holds
// round(t/dt) for t = 0..Horizon, and a walk over a scenario whose Dt is dt
// clamps that table to the scenario's length instead of rounding a division
// per year per path (yearIndex). Nothing is remembered between walks: the
// indices follow the (Dt, len(Rates)) of the scenario in hand.
type Fund struct {
	cfg      Config
	legs     []bondLeg
	equities []Asset // the equity sleeves, in Config order
	dt       float64 // the market's grid step, 1/StepsPerYear
	years    []int   // unclamped grid index of year t on that grid
}

// bondLeg is the bond sleeves of one currency, weighted and summed. A rolling
// sleeve of maturity M returns y_{t-1} - 0.85*M*(y_t - y_{t-1}) — carry plus
// the price effect of the yield change over its duration — and a corporate
// one (1.5 - LGD)*max(lambda_t, 0) on top, credit spread net of expected
// loss; the yield is affine in the short rate (stochastic.YieldCache), so
// the sum over sleeves is
//
//	k0 + k1*r_{t-1} - k2*(r_t - r_{t-1}) + kc*max(lambda_t, 0)
//
// with k0 = sum w*intercept, k1 = sum w*slope, k2 = sum w*0.85*M*slope, kc =
// sum over corporate sleeves of w*(1.5 - LGD). A foreign leg compounds with
// the currency index ratio x: sum w*((1+local)*x - 1) = (weight + leg)*x -
// weight.
type bondLeg struct {
	currency       int     // 1-based index into Scenario.Currencies, 0 domestic
	weight         float64 // sum of the sleeves' weights
	k0, k1, k2, kc float64
}

// New builds a fund evaluator. market must be the model the scenarios the
// fund will be evaluated on are generated from: its short rate prices the
// bond sleeves and its time grid is the one the year table is built for.
func New(cfg Config, market stochastic.Config) (*Fund, error) {
	if err := cfg.Validate(market); err != nil {
		return nil, err
	}
	f := &Fund{cfg: cfg, dt: 1.0 / float64(market.StepsPerYear)}
	for _, a := range cfg.Assets {
		if a.Kind == Equity {
			f.equities = append(f.equities, a)
			continue
		}
		li := slices.IndexFunc(f.legs, func(l bondLeg) bool { return l.currency == a.Currency })
		if li < 0 {
			li = len(f.legs)
			f.legs = append(f.legs, bondLeg{currency: a.Currency})
		}
		leg := &f.legs[li]
		intercept, slope := stochastic.NewYieldCache(market.Rate, a.Maturity).Affine()
		leg.weight += a.Weight
		leg.k0 += a.Weight * intercept
		leg.k1 += a.Weight * slope
		leg.k2 += a.Weight * 0.85 * a.Maturity * slope
		if a.Kind == CorporateBond {
			leg.kc += a.Weight * (1.5 - a.LossGivenDefault)
		}
	}
	// Scenario.IndexOfYear's own expression, before it clamps.
	f.years = make([]int, max(market.Horizon, 0)+1)
	for t := range f.years {
		f.years[t] = int(math.Round(float64(t) / f.dt))
	}
	return f, nil
}

// Config returns the fund configuration.
func (f *Fund) Config() Config { return f.cfg }

// MarketReturns returns the fund's annual MARKET-value returns along the
// scenario for the first `years` years (before management smoothing).
func (f *Fund) MarketReturns(s *stochastic.Scenario, years int) []float64 {
	return f.MarketReturnsInto(s, years, make([]float64, years), make([]int, years+1))
}

// yearIndex fills every idx[t] with the scenario's grid index of year t: the
// compiled table clamped to the scenario's length where the scenario is on
// the market's grid, Scenario.IndexOfYear past the table and on other grids.
func (f *Fund) yearIndex(s *stochastic.Scenario, idx []int) {
	t := 0
	if s.Dt == f.dt {
		last := len(s.Rates) - 1
		for ; t < len(idx) && t < len(f.years); t++ {
			idx[t] = min(f.years[t], last)
		}
	}
	for ; t < len(idx); t++ {
		idx[t] = s.IndexOfYear(float64(t))
	}
}

// MarketReturnsInto is MarketReturns writing into caller-owned buffers: out
// must hold years values and idx years+1 grid indices; on return idx[t] is
// the scenario's grid index of year t, for t = 0..years. It is the valuation
// hot loop's entry point — called once per inner path — and does per (path,
// year) only what depends on the path: one affine leg per bond currency, one
// level ratio per equity sleeve, each grid value read once and carried to
// the next year.
func (f *Fund) MarketReturnsInto(s *stochastic.Scenario, years int, out []float64, idx []int) []float64 {
	out = out[:years]
	clear(out)
	idx = idx[:years+1]
	f.yearIndex(s, idx)
	rates, credit := s.Rates, s.Credit
	for _, leg := range f.legs {
		var fxPath []float64
		var fx0 float64
		if leg.currency != 0 {
			fxPath = s.Currencies[leg.currency-1]
			fx0 = fxPath[idx[0]]
		}
		r0 := rates[idx[0]]
		for t := 1; t <= years; t++ {
			g := idx[t]
			r1 := rates[g]
			ret := leg.k0 + leg.k1*r0 - leg.k2*(r1-r0) + leg.kc*max(credit[g], 0)
			r0 = r1
			if fxPath != nil {
				fx1 := fxPath[g]
				ret = (leg.weight+ret)*(fx1/fx0) - leg.weight
				fx0 = fx1
			}
			out[t-1] += ret
		}
	}
	for _, a := range f.equities {
		var fxPath []float64
		var fx0 float64
		if a.Currency != 0 {
			fxPath = s.Currencies[a.Currency-1]
			fx0 = fxPath[idx[0]]
		}
		path := s.Equities[a.EquityIndex]
		p0 := path[idx[0]]
		for t := 1; t <= years; t++ {
			p1 := path[idx[t]]
			ret := p1/p0 - 1
			p0 = p1
			if fxPath != nil {
				fx1 := fxPath[idx[t]]
				ret = (1+ret)*(fx1/fx0) - 1
				fx0 = fx1
			}
			out[t-1] += a.Weight * ret
		}
	}
	return out
}

// Returns computes the BOOK-value return path I_1..I_years of Eq. (4) along
// the scenario, applying the gain-realisation smoothing strategy: in years
// when the market outperforms the target, a SmoothingFraction of the excess
// is left unrealised (capped at MaxBuffer); in lean years the manager
// realises buffered gains to lift the credited return toward the target.
func (f *Fund) Returns(s *stochastic.Scenario, years int) []float64 {
	return f.ReturnsInto(s, years, make([]float64, years), make([]float64, years), make([]int, years+1))
}

// ReturnsInto is Returns writing into caller-owned buffers: out and market
// must hold years values each, idx years+1 indices (filled as by
// MarketReturnsInto). The returned slice is the credited-return path (one of
// the two buffers). Year t's return does not depend on years — the market
// return is computed year by year and the smoothing buffer is carried left to
// right — so a longer walk extends a shorter one without changing it.
func (f *Fund) ReturnsInto(s *stochastic.Scenario, years int, out, market []float64, idx []int) []float64 {
	market = f.MarketReturnsInto(s, years, market, idx)
	if f.cfg.SmoothingFraction == 0 {
		return market
	}
	out = out[:years]
	buffer := 0.0
	for t, m := range market {
		credited := m
		if m > f.cfg.TargetReturn {
			stash := f.cfg.SmoothingFraction * (m - f.cfg.TargetReturn)
			if buffer+stash > f.cfg.MaxBuffer {
				stash = max(f.cfg.MaxBuffer-buffer, 0)
			}
			credited = m - stash
			buffer += stash
		} else if buffer > 0 {
			release := min(buffer, f.cfg.TargetReturn-m)
			credited = m + release
			buffer -= release
		}
		out[t] = credited
	}
	return out
}

// TypicalItalianFund returns a fund configuration resembling a real Italian
// segregated fund of the paper's era: government-bond heavy with corporate
// and equity sleeves, 2% target and moderate smoothing. numAssets >= 3
// controls how many sleeves the fund is split into (more sleeves = more
// valuation work per scenario, one of the ML characteristic parameters).
func TypicalItalianFund(numAssets int, market stochastic.Config) Config {
	if numAssets < 3 {
		numAssets = 3
	}
	assets := make([]Asset, 0, numAssets)
	// One equity sleeve per available index, round-robin (none, and the
	// bonds take the whole weight, in a market with no index); the rest
	// bonds with laddered maturities, 70/30 government/corporate.
	nEq := len(market.Equities)
	equitySleeves := 0
	if nEq > 0 {
		equitySleeves = max(numAssets/4, 1)
	}
	bondSleeves := numAssets - equitySleeves
	eqWeight := 0.15
	if equitySleeves == 0 {
		eqWeight = 0
	}
	for i := 0; i < equitySleeves; i++ {
		assets = append(assets, Asset{
			Kind:        Equity,
			Weight:      eqWeight / float64(equitySleeves),
			EquityIndex: i % nEq,
		})
	}
	bondWeight := (1 - eqWeight) / float64(bondSleeves)
	for i := 0; i < bondSleeves; i++ {
		maturity := 2 + 2*float64(i%6) // ladder: 2..12y
		if i%3 == 2 {
			assets = append(assets, Asset{
				Kind: CorporateBond, Weight: bondWeight,
				Maturity: maturity, LossGivenDefault: 0.6,
			})
		} else {
			assets = append(assets, Asset{
				Kind: GovernmentBond, Weight: bondWeight, Maturity: maturity,
			})
		}
	}
	return Config{
		Name:              fmt.Sprintf("segfund-%d", numAssets),
		Assets:            assets,
		TargetReturn:      0.02,
		SmoothingFraction: 0.5,
		MaxBuffer:         0.08,
	}
}
