// Package alm implements the type-B elementary elaboration blocks of DISAR:
// market-consistent valuation of profit-sharing liabilities through nested
// Monte Carlo simulation (outer real-world paths x inner risk-neutral
// paths) and its Least-Squares Monte Carlo (LSMC) acceleration, as
// described in Section II of the paper. The package also computes the
// Solvency Capital Requirement as the 99.5% Value-at-Risk of the one-year
// value distribution.
//
// The inner loop — scenario generation plus portfolio revaluation — is the
// dominant cost of a Solvency II workload and therefore of the VM-hours the
// elastic provisioner buys. There is one walk of it, JobValuer's, over all
// the type-B blocks of a job at once: inner paths are generated N at a time
// into pooled contiguous panels (stochastic.Batch), the fund is priced and
// the discount curve read once per inner path, and each block's contracts —
// compiled once into one-pass policy.Kernels — add their present values to
// that block's own sum; blocks of the same contracts on different decrement
// bases share one readjustment chain per contract (policy.Book). Every
// per-path working slice lives in a per-walk
// scratch reused across all outer*inner paths, so the walk allocates
// nothing per path. Sources that cannot batch fall back to
// one-path-at-a-time access with the same buffered arithmetic, so both code
// paths produce bit-identical results. Valuer, the single-block API, is the
// one-block case of the same walk: a block valued alone and a block valued
// with its job's other blocks get the same bits.
package alm

import (
	"context"
	"fmt"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/eeb"
	"disarcloud/internal/stochastic"
)

// DefaultLapse is the lapse assumption used when a block does not override
// it: elevated early surrenders decaying to an ultimate level, typical of
// Italian profit-sharing business.
func DefaultLapse() actuarial.LapseModel {
	return actuarial.DurationLapse{Initial: 0.06, Ultimate: 0.015, Decay: 0.75}
}

// Valuer executes one type-B EEB: it owns the scenario generator, the fund
// evaluator and the per-contract decrement tables (the type-A inputs), and
// exposes both plain nested Monte Carlo and LSMC valuation. It is a
// JobValuer over the single block, so it is immutable after construction
// and safe for concurrent use.
type Valuer struct {
	job *JobValuer
}

// NewValuer prepares a valuer for the block, computing the type-A decrement
// tables for every representative contract. seed roots all the valuer's
// random streams: two valuers with the same block and seed produce
// bit-identical results regardless of how work is partitioned. A block with
// a Scenarios source draws its paths from there instead (stress-campaign
// reuse); a block with a Biometric basis has its decrement assumptions
// scaled accordingly. Panel buffers come from the block's Buffers pool, or
// the process-wide shared pool when the block carries none.
func NewValuer(b *eeb.Block, seed uint64) (*Valuer, error) {
	job, err := NewJobValuer([]*eeb.Block{b}, seed)
	if err != nil {
		return nil, err
	}
	return &Valuer{job: job}, nil
}

// Block returns the block the valuer executes.
func (v *Valuer) Block() *eeb.Block { return v.job.blocks[0] }

// GenerateOuter supplies outer path i (real-world measure, 0 to 1 year) from
// the valuer's scenario source.
func (v *Valuer) GenerateOuter(i int) OuterState {
	s := v.job.src.Outer(i)
	returns := v.job.fund.Returns(s, 1)
	return OuterState{Scenario: s, FundReturn: returns[0], Discount: s.Discount(1)}
}

// ValueOuter computes Y1 for outer path i: the inner risk-neutral average of
// the time-1 present value, using nInner conditional paths.
func (v *Valuer) ValueOuter(i, nInner int) (float64, error) {
	y1, err := v.ValueOuters(context.Background(), []int{i}, nInner, nil)
	if err != nil {
		return 0, err
	}
	return y1[0], nil
}

// ValueRange computes the block's Y1 values for outer paths [from, to); see
// JobValuer.ValueRange.
func (v *Valuer) ValueRange(ctx context.Context, from, to int, onPath func()) ([]float64, error) {
	y1, err := v.job.ValueRange(ctx, from, to, onPath)
	if err != nil {
		return nil, err
	}
	return y1[0], nil
}

// OuterSlice is ValueRange without cancellation or progress reporting.
func (v *Valuer) OuterSlice(from, to int) ([]float64, error) {
	return v.ValueRange(context.Background(), from, to, nil)
}

// WalkOuter visits outer paths [from, to) in order through the batched
// panel pipeline, materialising each path's F1 state without running any
// inner simulations — the fast path of a proxy serving tier, which only
// needs features and the outer discount factor. fn's OuterState (and its
// Scenario view) is valid only for the duration of the call. Cancellation
// is checked before every path.
func (v *Valuer) WalkOuter(ctx context.Context, from, to int, fn func(i int, st OuterState) error) error {
	if from < 0 || to < from {
		return fmt.Errorf("alm: bad outer slice [%d,%d)", from, to)
	}
	sc := v.job.newScratch()
	defer sc.release()
	return v.job.forEachOuter(from, to, sc, func(i int, st OuterState) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(i, st)
	})
}

// ValueOuters computes Y1 for an arbitrary set of outer path indices with
// nInner conditional inner paths each, sharing one scratch (and its pooled
// panels) across the whole set. Results are positionally aligned with
// indices. Because every path's random streams are rooted at its index, the
// values are bit-identical to what ValueRange would produce for the same
// paths — this is the escalation entry point of the proxy tier, which
// re-values a scattered subset of outer scenarios through the full batched
// Monte Carlo pipeline. onPath, when non-nil, runs after each completed
// path.
func (v *Valuer) ValueOuters(ctx context.Context, indices []int, nInner int, onPath func()) ([]float64, error) {
	if nInner <= 0 {
		return nil, fmt.Errorf("alm: ValueOuters needs positive inner paths, got %d", nInner)
	}
	for _, i := range indices {
		if i < 0 {
			return nil, fmt.Errorf("alm: ValueOuters got negative outer index %d", i)
		}
	}
	out := make([]float64, len(indices))
	sc := v.job.newScratch()
	defer sc.release()
	for k, i := range indices {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st := v.job.outerState(v.job.src.Outer(i), sc)
		out[k] = v.job.valueOuter(i, nInner, st, sc)[0]
		if onPath != nil {
			onPath()
		}
	}
	return out, nil
}

// FeatureDrivers is the set of risk drivers Features reads directly; the
// fund book return among the features reads its fund's (fund.Config.Drivers).
const FeatureDrivers = stochastic.RateDriver | stochastic.EquityDriver | stochastic.CreditDriver

// Features returns the LSMC regression features of an outer state:
// the year-1 short rate, the year-1 fund book return, the year-1 credit
// intensity, and the log-level of each equity index at year 1.
func (v *Valuer) Features(o OuterState) []float64 {
	s := o.Scenario
	idx := s.IndexOfYear(1)
	feats := make([]float64, 0, 3+len(s.Equities))
	feats = append(feats, s.Rates[idx], o.FundReturn, s.Credit[idx])
	for _, eq := range s.Equities {
		feats = append(feats, eq[idx]/eq[0]-1)
	}
	return feats
}
