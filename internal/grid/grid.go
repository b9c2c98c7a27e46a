// Package grid implements the distributed DISAR architecture of Figure 1 of
// the paper: a Master service (DiMaS) that splits the input into elementary
// elaboration blocks, schedules them, distributes work to computing units
// and monitors progress; and an Engine service (DiEng) on each unit that
// executes type-A blocks through the actuarial engine (DiActEng) and type-B
// blocks through the ALM engine (DiAlmEng). Work is scattered and gathered
// with the mpi package, following the data-separation pattern of Section
// III: each node computes local values over a disjoint range of outer
// scenarios and the master combines them into the global result.
//
// The unit of scatter is an outer range of a job, not of a block: the type-B
// blocks of a simulation share fund, market, scenarios and sample sizes, so
// Master.Run groups them (eeb.GroupWalks), builds one alm.JobValuer per
// group, and hands every rank one [from, to) that it walks for all the
// group's blocks at once — each scenario generated, and the fund priced
// along it, once. RunSequential deliberately stays one block at a time: it
// is the independent reference the fused run is checked against.
package grid

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/alm"
	"disarcloud/internal/eeb"
	"disarcloud/internal/mpi"
)

// Progress is a monitoring event emitted as outer scenarios complete.
type Progress struct {
	BlockID string
	Done    int // outer paths completed so far (across all ranks)
	Total   int // total outer paths of the block
}

// Engine is the DiEng node service: it executes block work on one computing
// unit, delegating to DiActEng (type A) or DiAlmEng (type B).
type Engine struct {
	seed uint64
}

// NewEngine builds a node engine whose valuations are rooted at seed.
func NewEngine(seed uint64) *Engine { return &Engine{seed: seed} }

// ExecuteTypeA runs an actuarial-valuation block: the probabilized decrement
// schedules for every representative contract, on the block's biometric
// basis (best estimate, or a Solvency II life stress).
func (e *Engine) ExecuteTypeA(b *eeb.Block) ([]*actuarial.DecrementTable, error) {
	if b.Type != eeb.ActuarialValuation {
		return nil, fmt.Errorf("grid: block %s is type %s, want A", b.ID, b.Type)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	var lapse actuarial.LapseModel = alm.DefaultLapse()
	if f := b.Biometric.LapseScale(); f != 1 {
		lapse = actuarial.LapseStress{Base: lapse, Factor: f}
	}
	out := make([]*actuarial.DecrementTable, len(b.Portfolio.Contracts))
	for i, c := range b.Portfolio.Contracts {
		var mort actuarial.MortalityModel = actuarial.ForGender(c.Gender)
		if f := b.Biometric.MortalityScale(); f != 1 {
			mort = actuarial.ScaledMortality{Base: mort, Factor: f}
		}
		eng, err := actuarial.NewEngine(mort, lapse)
		if err != nil {
			return nil, err
		}
		dec, err := eng.Decrements(c.Age, c.Term)
		if err != nil {
			return nil, fmt.Errorf("grid: block %s contract %d: %w", b.ID, i, err)
		}
		out[i] = dec
	}
	return out, nil
}

// ExecuteSlice runs the outer-path range [from, to) of one type-B block,
// invoking onDone after each completed path when non-nil. The result is the
// local Y1 values. It is the single-block form of ExecuteRange, for callers
// holding one block rather than a job. Cancellation is checked between outer
// paths: a cancelled ctx aborts the slice and returns ctx.Err().
func (e *Engine) ExecuteSlice(ctx context.Context, b *eeb.Block, from, to int, onDone func()) ([]float64, error) {
	v, err := alm.NewValuer(b, e.seed)
	if err != nil {
		return nil, err
	}
	return v.ValueRange(ctx, from, to, onDone)
}

// ExecuteRange runs the outer-path range [from, to) of a job — every block
// of the valuer in one walk — invoking onDone after each completed path when
// non-nil. The result is the local Y1 values per block, ready to be gathered
// by the master. The valuer walks the range through its batched,
// pool-buffered hot path (panels drawn from the blocks' Buffers pool, or the
// shared default). Cancellation is checked between outer paths.
func (e *Engine) ExecuteRange(ctx context.Context, job *alm.JobValuer, from, to int, onDone func()) ([][]float64, error) {
	return job.ValueRange(ctx, from, to, onDone)
}

// executor abstracts the DiEng range execution so fault-injection tests can
// wrap it with transient failures.
type executor interface {
	ExecuteRange(ctx context.Context, job *alm.JobValuer, from, to int, onDone func()) ([][]float64, error)
}

var _ executor = (*Engine)(nil)

// Master is the DiMaS orchestrator.
type Master struct {
	// Workers is the number of computing units (MPI ranks).
	Workers int
	// Seed roots every valuation stream; results are independent of Workers.
	Seed uint64
	// OnProgress, when non-nil, receives monitoring events. Calls are
	// serialised by the master.
	OnProgress func(Progress)
	// MaxRetries re-executes a failed outer-range slice up to this many
	// extra times before the whole run fails. The valuation is
	// deterministic, so a retried slice returns exactly the values the
	// failed attempt would have — transient worker faults are absorbed
	// without changing any number.
	MaxRetries int

	// newExecutor is a test seam for fault injection; nil means NewEngine.
	newExecutor func(seed uint64) executor
}

func (m *Master) executor() executor {
	if m.newExecutor != nil {
		return m.newExecutor(m.Seed)
	}
	return NewEngine(m.Seed)
}

// executeWithRetry runs one slice, absorbing up to MaxRetries transient
// failures. Cancellation is never retried: it propagates immediately and
// unwrapped so callers can match it with errors.Is.
//
// Progress is retry-idempotent: a failed attempt has already invoked onDone
// for every path it completed before erroring, and the retry recomputes
// those same paths (the valuation is deterministic per index). Replaying
// their onDone calls would push the blocks' Done counts past their
// outer-path total, so a high-water wrapper reports each path position at
// most once across all attempts — only completions beyond the furthest
// point any earlier attempt reached reach the caller's callback.
func (m *Master) executeWithRetry(ctx context.Context, eng executor, job *alm.JobValuer, from, to int, onDone func()) ([][]float64, error) {
	wrapped := onDone
	reported := 0
	attemptDone := 0
	if onDone != nil {
		wrapped = func() {
			attemptDone++
			if attemptDone > reported {
				reported = attemptDone
				onDone()
			}
		}
	}
	var lastErr error
	for attempt := 0; attempt <= m.MaxRetries; attempt++ {
		attemptDone = 0
		local, err := eng.ExecuteRange(ctx, job, from, to, wrapped)
		if err == nil {
			return local, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
	}
	return nil, fmt.Errorf("grid: slice [%d,%d) of the walk of %s failed after %d attempts: %w",
		from, to, job.Blocks()[0].ID, m.MaxRetries+1, lastErr)
}

// Run executes every type-B block in blocks across the master's workers and
// returns the assembled results keyed by block ID. The unit of scatter is an
// outer range of a job, not of a block: the blocks are grouped into the
// walks they can share (eeb.GroupWalks — the blocks of one simulation form
// one group), each group gets one alm.JobValuer built once and shared by
// the ranks, every rank walks one [from, to) of it for all the group's
// blocks at once, and the master gathers per block. Type-A blocks in the
// input are validated and skipped: the valuer computes the decrements it
// needs itself.
//
// Cancelling ctx stops every rank between outer paths; the ranks stay in
// lockstep through the collectives and Run returns ctx.Err().
func (m *Master) Run(ctx context.Context, blocks []*eeb.Block) (map[string]*alm.Result, error) {
	if m.Workers <= 0 {
		return nil, errors.New("grid: master needs at least one worker")
	}
	for _, b := range blocks {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	groups := eeb.GroupWalks(blocks)
	jobs := make([]*alm.JobValuer, len(groups))
	for g, group := range groups {
		job, err := alm.NewJobValuer(group, m.Seed)
		if err != nil {
			return nil, err
		}
		jobs[g] = job
	}

	results := make(map[string]*alm.Result)
	var progressMu sync.Mutex
	done := make(map[string]int)

	world := mpi.NewWorld(m.Workers)
	err := world.Run(func(c *mpi.Comm) error {
		engine := m.executor()
		// A rank whose slice fails permanently must KEEP participating in
		// the collectives (gathering a nil marker) — leaving early would
		// deadlock the healthy ranks. The error is returned after the
		// lockstep loop completes.
		var rankErr error
		for _, job := range jobs {
			group, outer := job.Blocks(), job.Outer()
			from, to := mpi.SplitRange(outer, c.Size(), c.Rank())
			var onDone func()
			if m.OnProgress != nil {
				onDone = func() {
					// One completed path of the walk is one completed path of
					// every block in it. The hook runs under the mutex so
					// calls are serialised across ranks, as the OnProgress
					// contract promises; keep user hooks fast.
					progressMu.Lock()
					for _, b := range group {
						done[b.ID]++
						m.OnProgress(Progress{BlockID: b.ID, Done: done[b.ID], Total: outer})
					}
					progressMu.Unlock()
				}
			}
			var local [][]float64
			if rankErr == nil {
				var err error
				local, err = m.executeWithRetry(ctx, engine, job, from, to, onDone)
				if err != nil {
					rankErr = err
					local = nil
				}
			}
			y1 := make([][]float64, len(group))
			for bi, b := range group {
				var part []float64
				if local != nil {
					part = local[bi]
				}
				parts, err := c.Gather(0, part)
				if err != nil {
					return err
				}
				if c.Rank() != 0 || rankErr != nil {
					continue
				}
				y1[bi] = make([]float64, 0, outer)
				for _, p := range parts {
					y1[bi] = append(y1[bi], p...)
				}
				if len(y1[bi]) != outer {
					// Some rank contributed a failure marker; surface it
					// from the master side too.
					rankErr = fmt.Errorf("grid: block %s gathered %d of %d outer values (worker failure)",
						b.ID, len(y1[bi]), outer)
				}
			}
			if c.Rank() == 0 && rankErr == nil {
				assembled, err := job.Assemble(y1)
				if err != nil {
					return err
				}
				for bi, b := range group {
					results[b.ID] = assembled[bi]
				}
			}
			// Keep ranks in lockstep across jobs so the gather origin is
			// unambiguous.
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return rankErr
	})
	if err != nil {
		// Prefer the plain context error over the joined per-rank errors so
		// callers can match cancellation with errors.Is — but only when the
		// ranks actually failed on the cancellation, so a genuine fault that
		// raced the deadline keeps its diagnostics.
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return nil, ctxErr
		}
		return nil, err
	}
	return results, nil
}

// RunSequential executes every type-B block on a single computing unit —
// the baseline the paper's Figure 4 speedups are measured against. It is
// deliberately one block at a time, each through its own single-block
// valuer: that makes it an independent reference for Run, whose job walk
// must reproduce these values bit for bit. The context is checked between
// blocks.
func RunSequential(ctx context.Context, blocks []*eeb.Block, seed uint64) (map[string]*alm.Result, error) {
	results := make(map[string]*alm.Result)
	for _, b := range eeb.TypeB(blocks) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v, err := alm.NewValuer(b, seed)
		if err != nil {
			return nil, err
		}
		res, err := v.ValueNested()
		if err != nil {
			return nil, err
		}
		results[b.ID] = res
	}
	return results, nil
}
