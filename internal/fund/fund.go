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
// given market model (equity indices must exist).
func (c Config) Validate(market stochastic.Config) error {
	if len(c.Assets) == 0 {
		return errors.New("fund: no assets")
	}
	total := 0.0
	for i, a := range c.Assets {
		if a.Weight < 0 {
			return fmt.Errorf("fund: asset %d has negative weight", i)
		}
		total += a.Weight
		switch a.Kind {
		case GovernmentBond, CorporateBond:
			if a.Maturity <= 0 {
				return fmt.Errorf("fund: bond asset %d needs positive maturity", i)
			}
			if a.Kind == CorporateBond && (a.LossGivenDefault < 0 || a.LossGivenDefault > 1) {
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
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("fund: weights sum to %v, want 1", total)
	}
	if c.SmoothingFraction < 0 || c.SmoothingFraction > 1 {
		return errors.New("fund: smoothing fraction outside [0,1]")
	}
	if c.MaxBuffer < 0 {
		return errors.New("fund: negative buffer cap")
	}
	return nil
}

// NumAssets returns the number of fund sleeves — the "segregated fund asset
// number" characteristic parameter of the ML models.
func (c Config) NumAssets() int { return len(c.Assets) }

// Fund evaluates book-value return paths along scenarios.
type Fund struct {
	cfg  Config
	rate stochastic.VasicekParams
	// yields holds, per asset sleeve, the sleeve's zero-coupon curve point
	// as an affine function of the short rate (bond kinds only): the bond
	// leg is repriced once per simulated (path, year), so the hot loop pays
	// a multiply-add there and no transcendental. It is the same function
	// stochastic.ImpliedYield evaluates, so the walk and the scalar
	// reference (localReturn) agree bit for bit.
	yields []stochastic.YieldCache
}

// New builds a fund evaluator. rate must be the same short-rate model used
// to generate the scenarios the fund will be evaluated on.
func New(cfg Config, market stochastic.Config) (*Fund, error) {
	if err := cfg.Validate(market); err != nil {
		return nil, err
	}
	f := &Fund{cfg: cfg, rate: market.Rate, yields: make([]stochastic.YieldCache, len(cfg.Assets))}
	for i, a := range cfg.Assets {
		if a.Kind == GovernmentBond || a.Kind == CorporateBond {
			f.yields[i] = stochastic.NewYieldCache(market.Rate, a.Maturity)
		}
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

// MarketReturnsInto is MarketReturns writing into caller-owned buffers: out
// must hold years values and idx years+1 grid indices; on return idx[t] is
// the scenario's grid index of year t, for t = 0..years. It is the valuation
// hot loop's entry point — called once per inner path — so it walks the
// assets in the outer loop and carries the per-asset state that consecutive
// years share: the yield at year t-1 IS the yield computed for year t-2's
// revaluation, so each bond sleeve prices one zero-coupon curve point per
// year instead of two, and each index sleeve reads each grid level once.
// Carried values are reused results of the exact same pure-function calls,
// and per-year contributions accumulate in the same asset order, so the
// output is bit-identical to the one-asset-at-a-time form.
func (f *Fund) MarketReturnsInto(s *stochastic.Scenario, years int, out []float64, idx []int) []float64 {
	out = out[:years]
	clear(out)
	idx = idx[:years+1]
	for t := 0; t <= years; t++ {
		idx[t] = s.IndexOfYear(float64(t))
	}
	for ai, a := range f.cfg.Assets {
		var fxPath []float64
		var fx0 float64
		if a.Currency != 0 {
			fxPath = s.Currencies[a.Currency-1]
			fx0 = fxPath[idx[0]]
		}
		switch a.Kind {
		case Equity:
			path := s.Equities[a.EquityIndex]
			p0 := path[idx[0]]
			for t := 1; t <= years; t++ {
				p1 := path[idx[t]]
				local := p1/p0 - 1
				p0 = p1
				ret := local
				if fxPath != nil {
					fx1 := fxPath[idx[t]]
					ret = (1+local)*(fx1/fx0) - 1
					fx0 = fx1
				}
				out[t-1] += a.Weight * ret
			}
		case GovernmentBond, CorporateBond:
			duration := 0.85 * a.Maturity
			curve := f.yields[ai]
			y0 := curve.Yield(s.Rates[idx[0]])
			for t := 1; t <= years; t++ {
				y1 := curve.Yield(s.Rates[idx[t]])
				local := y0 - duration*(y1-y0)
				y0 = y1
				if a.Kind == CorporateBond {
					lambda := max(s.Credit[idx[t]], 0)
					local += 1.5*lambda - a.LossGivenDefault*lambda
				}
				ret := local
				if fxPath != nil {
					fx1 := fxPath[idx[t]]
					ret = (1+local)*(fx1/fx0) - 1
					fx0 = fx1
				}
				out[t-1] += a.Weight * ret
			}
		}
	}
	return out
}

// assetReturn is the market return of one sleeve over year [t-1, t], in
// domestic terms: foreign sleeves compound the local return with the
// currency index return. It is the reference implementation the carried
// state of MarketReturnsInto is tested against (bit-identity), kept out of
// the hot loop because it reprices the curve point at both endpoints of
// every year.
func (f *Fund) assetReturn(a Asset, s *stochastic.Scenario, t int) float64 {
	local := f.localReturn(a, s, t)
	if a.Currency == 0 {
		return local
	}
	fx0 := s.Currencies[a.Currency-1][s.IndexOfYear(float64(t-1))]
	fx1 := s.Currencies[a.Currency-1][s.IndexOfYear(float64(t))]
	return (1+local)*(fx1/fx0) - 1
}

// localReturn is the sleeve's return in its own denomination currency.
func (f *Fund) localReturn(a Asset, s *stochastic.Scenario, t int) float64 {
	switch a.Kind {
	case Equity:
		p0 := s.Equities[a.EquityIndex][s.IndexOfYear(float64(t-1))]
		p1 := s.Equities[a.EquityIndex][s.IndexOfYear(float64(t))]
		return p1/p0 - 1
	case GovernmentBond, CorporateBond:
		// Rolling bond sleeve: carry at last year's yield plus the price
		// effect of the yield change over a duration of ~0.85*maturity.
		r0 := s.RateAtYear(float64(t - 1))
		r1 := s.RateAtYear(float64(t))
		y0 := stochastic.ImpliedYield(f.rate, r0, a.Maturity)
		y1 := stochastic.ImpliedYield(f.rate, r1, a.Maturity)
		duration := 0.85 * a.Maturity
		ret := y0 - duration*(y1-y0)
		if a.Kind == CorporateBond {
			// Credit carry spread minus expected default loss at the
			// prevailing intensity.
			lambda := max(s.Credit[s.IndexOfYear(float64(t))], 0)
			ret += 1.5*lambda - a.LossGivenDefault*lambda
		}
		return ret
	default:
		return 0
	}
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
	// One equity sleeve per available index, round-robin; the rest bonds
	// with laddered maturities, 70/30 government/corporate.
	nEq := len(market.Equities)
	equitySleeves := numAssets / 4
	if equitySleeves < 1 && nEq > 0 {
		equitySleeves = 1
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
