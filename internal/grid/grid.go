// Package grid implements the distributed DISAR architecture of Figure 1 of
// the paper: a Master service (DiMaS) that splits the input into elementary
// elaboration blocks, distributes work to computing units and monitors
// progress; and an Engine service (DiEng) on each unit that executes type-A
// blocks through the actuarial engine (DiActEng) and type-B blocks through
// the ALM engine (DiAlmEng). It follows the data-separation pattern of
// Section III: each unit computes local values over a disjoint range of outer
// scenarios and the master combines them into the global result.
//
// There is one master loop, RunWith, parameterised by a Scatter — how one
// job's outer range gets valued. The unit of scatter is an outer range of a
// job, not of a block: the type-B blocks of a simulation share fund, market,
// scenarios and sample sizes, so the loop groups them (eeb.GroupWalks),
// builds one alm.JobValuer per group, and every engine walks its [from, to)
// for all the group's blocks at once — each scenario generated, and the fund
// priced along it, once. Master.Run plugs in the in-process scatter, a
// fork/join of Workers ranks; cluster.Coordinator plugs in slices over HTTP.
//
// RunSequential deliberately stays one block at a time: it is the
// independent reference the fused run is checked against.
package grid

import (
	"context"
	"errors"
	"fmt"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/alm"
	"disarcloud/internal/eeb"
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
// wrap it with failures and panics.
type executor interface {
	ExecuteRange(ctx context.Context, job *alm.JobValuer, from, to int, onDone func()) ([][]float64, error)
}

var _ executor = (*Engine)(nil)

// Master is the DiMaS orchestrator of the in-process grid: the master loop
// over a fork/join of Workers ranks.
type Master struct {
	// Workers is the number of computing units (ranks) an outer range is
	// split over.
	Workers int
	// Seed roots every valuation stream; results are independent of Workers.
	Seed uint64
	// OnProgress, when non-nil, receives monitoring events. Calls are
	// serialised by the master.
	OnProgress func(Progress)

	// newExecutor is a test seam for fault injection; nil means NewEngine.
	newExecutor func(seed uint64) executor
}

func (m *Master) executor() executor {
	if m.newExecutor != nil {
		return m.newExecutor(m.Seed)
	}
	return NewEngine(m.Seed)
}

// Run executes every type-B block in blocks across the master's workers and
// returns the assembled results keyed by block ID: the master loop (RunWith)
// over the in-process scatter. Type-A blocks in the input are validated and
// skipped: the valuer computes the decrements it needs itself.
//
// Cancelling ctx stops every rank between outer paths and Run returns
// ctx.Err(); a rank that fails or panics stops its siblings the same way
// and Run returns that rank's error. A failed range is not retried: the
// engine fails only on a cancelled context or a malformed range, and a rerun
// would meet either again.
func (m *Master) Run(ctx context.Context, blocks []*eeb.Block) (map[string]*alm.Result, error) {
	if m.Workers <= 0 {
		return nil, errors.New("grid: master needs at least one worker")
	}
	return RunWith(ctx, blocks, m.Seed, m.OnProgress, m.scatter)
}

// scatter is the in-process Scatter: rank r of a fork/join walks
// SplitRange(outer, Workers, r) of the job and copies its part into place.
func (m *Master) scatter(ctx context.Context, job *alm.JobValuer, onPath func()) ([][]float64, error) {
	group, outer := job.Blocks(), job.Outer()
	y1 := make([][]float64, len(group))
	for bi := range y1 {
		y1[bi] = make([]float64, outer)
	}
	// SplitRange hands the extras to the lowest ranks, so with more workers
	// than paths the ranks from outer on are empty: they get no goroutine.
	ranks := min(m.Workers, outer)
	err := ForkJoin(ctx, ranks, ranks, func(ctx context.Context, rank int) error {
		from, to := SplitRange(outer, m.Workers, rank)
		local, err := m.executor().ExecuteRange(ctx, job, from, to, onPath)
		if err != nil {
			return err
		}
		if err := CheckPart(local, len(group), from, to); err != nil {
			return fmt.Errorf("grid: rank %d: %w", rank, err)
		}
		for bi, part := range local {
			copy(y1[bi][from:to], part)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return y1, nil
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
