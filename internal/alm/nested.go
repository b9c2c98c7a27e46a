package alm

import (
	"sort"

	"disarcloud/internal/finmath"
)

// Result is the outcome of a type-B valuation.
type Result struct {
	// BEL is the best-estimate liability at time 0: the discounted mean of
	// the one-year value distribution.
	BEL float64
	// SCR is the Solvency Capital Requirement: the 99.5% Value-at-Risk of
	// the discounted one-year value distribution (Solvency II, Art. 101).
	SCR float64
	// Y1 holds the per-outer-scenario time-1 values (undiscounted).
	Y1 []float64
	// DiscountedY1 holds D(0,1)*Y1 per outer scenario.
	DiscountedY1 []float64
	// StdErr is the Monte Carlo standard error of BEL.
	StdErr float64
	// Method records how the valuation was produced ("nested" or "lsmc").
	Method string
}

// Summarize builds a Result from complete per-outer-scenario values: y1 are
// the time-1 values, discounted their D(0,1)-discounted counterparts, and
// method a label recording how they were produced (e.g. "proxy"). It is the
// aggregation step shared by every valuation mode; external serving tiers
// use it to assemble results from values they computed themselves.
func Summarize(y1, discounted []float64, method string) *Result {
	return summarize(y1, discounted, method)
}

// summarize fills the aggregate fields from the per-scenario values.
func summarize(y1, discounted []float64, method string) *Result {
	r := &Result{Y1: y1, DiscountedY1: discounted, Method: method}
	r.BEL = finmath.Mean(discounted)
	sorted := make([]float64, len(discounted))
	copy(sorted, discounted)
	sort.Float64s(sorted)
	// Liability risk is the value at t=1 exceeding its expectation: the SCR
	// is the distance from the mean to the 99.5th percentile.
	r.SCR = finmath.QuantileSorted(sorted, 0.995) - r.BEL
	r.StdErr = finmath.StandardError(discounted)
	return r
}

// ValueNested runs the full two-stage nested Monte Carlo of Section II:
// block.Outer real-world paths, each with block.Inner risk-neutral
// conditional paths. The computation is deterministic in the valuer's seed
// and independent of any partitioning of the outer range.
func (v *Valuer) ValueNested() (*Result, error) {
	y1, err := v.OuterSlice(0, v.Block().Outer)
	if err != nil {
		return nil, err
	}
	return v.Assemble(y1)
}

// Assemble turns gathered per-outer-path Y1 values (for the complete range
// [0, block.Outer), in order) into a Result; see JobValuer.Assemble.
func (v *Valuer) Assemble(y1 []float64) (*Result, error) {
	results, err := v.job.Assemble([][]float64{y1})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}
