package alm

import (
	"context"
	"errors"
	"fmt"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/eeb"
	"disarcloud/internal/fund"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
)

// innerChunk and outerChunk are the panel capacities of the batched hot
// loop: inner paths are generated innerChunk at a time, outer paths
// outerChunk at a time. Small enough to stay cache-resident on a typical
// grid (tens of steps), large enough to amortise the per-fill overhead.
const (
	innerChunk = 32
	outerChunk = 8
)

// JobValuer values the type-B blocks of one job in a single walk of the
// nested Monte Carlo. The blocks share fund, market, scenario source and
// sample sizes (eeb.SameWalk), so every scenario is generated once and the
// fund is priced along it once for all of them; only the contracts — each
// compiled with its decrement table into a policy.Kernel — are per block.
// Blocks that hold the same contracts on different decrement bases share a
// policy.Book, one basis each, so each contract's readjustment chain is
// computed once per path for all of them. A JobValuer is immutable after
// construction and safe for concurrent use: all mutable state of a walk
// lives in its own scratch.
type JobValuer struct {
	blocks []*eeb.Block
	books  []policy.Book // the blocks' contracts, one basis per block
	// slots holds, per block, the index of its running sum in a walk's
	// scratch, where each book's bases take consecutive sums, books in order.
	slots []int
	src   stochastic.Source
	fund  *fund.Fund
	pool  *stochastic.BatchPool // panel pool; never nil after construction
	// maxTerm is the widest block's Portfolio.MaxTerm(): the fund is walked
	// maxTerm-1 inner years per path. Year t's book return does not depend
	// on how many years are asked for (fund.ReturnsInto), so that path
	// extends, bit for bit, the one a narrower block would walk alone, and a
	// contract reads only its own first Term years of it.
	maxTerm int
}

// NewJobValuer prepares the joint valuation of blocks, which must all walk
// together (eeb.SameWalk; eeb.GroupWalks partitions an arbitrary list). seed
// roots every random stream: per block, the values are bit-identical to
// NewValuer(block, seed)'s, regardless of how the outer range is
// partitioned. Scenario source, biometric bases and the panel pool are taken
// from the blocks as NewValuer takes them (the pool from the first block).
//
// A block joins the first book whose contracts have its readjustment chains
// (policy.Book.Add) as another basis; that is a property of the inputs, so
// every caller fuses the same way, and a block's values do not depend on
// whether it shares a book.
func NewJobValuer(blocks []*eeb.Block, seed uint64) (*JobValuer, error) {
	if len(blocks) == 0 {
		return nil, errors.New("alm: no blocks to value")
	}
	for _, b := range blocks {
		if b == nil {
			return nil, errors.New("alm: nil block")
		}
		if err := b.Validate(); err != nil {
			return nil, err
		}
		if b.Type != eeb.ALMValuation {
			return nil, fmt.Errorf("alm: block %s is type %s, want B", b.ID, b.Type)
		}
		if !eeb.SameWalk(blocks[0], b) {
			return nil, fmt.Errorf("alm: blocks %s and %s cannot share a walk (fund, market, scenarios or sample sizes differ)",
				blocks[0].ID, b.ID)
		}
	}
	first := blocks[0]
	gen, err := stochastic.NewGenerator(first.Market)
	if err != nil {
		return nil, err
	}
	fd, err := fund.New(first.Fund, first.Market)
	if err != nil {
		return nil, err
	}
	j := &JobValuer{blocks: blocks, src: first.Scenarios, fund: fd, pool: first.Buffers}
	if j.src == nil {
		j.src = stochastic.NewPathSource(gen, seed)
	}
	if j.pool == nil {
		j.pool = stochastic.SharedBatchPool()
	}
	type place struct{ book, basis int }
	places := make([]place, len(blocks))
	for bi, b := range blocks {
		j.maxTerm = max(j.maxTerm, b.Portfolio.MaxTerm())
		kernels, err := compileKernels(b)
		if err != nil {
			return nil, err
		}
		bk := 0
		for bk < len(j.books) && !j.books[bk].Add(kernels) {
			bk++
		}
		if bk == len(j.books) {
			j.books = append(j.books, policy.NewBook(kernels))
		}
		places[bi] = place{bk, j.books[bk].Width() - 1}
	}
	start := make([]int, len(j.books)) // per book: the slot of its first basis
	for bk := 1; bk < len(j.books); bk++ {
		start[bk] = start[bk-1] + j.books[bk-1].Width()
	}
	j.slots = make([]int, len(blocks))
	for bi, p := range places {
		j.slots[bi] = start[p.book] + p.basis
	}
	return j, nil
}

// compileKernels computes the type-A decrement table of every representative
// contract of the block, on the standard tables and DefaultLapse scaled by
// the block's biometric basis, and compiles the contracts against them.
func compileKernels(b *eeb.Block) ([]policy.Kernel, error) {
	var lapse actuarial.LapseModel = DefaultLapse()
	if f := b.Biometric.LapseScale(); f != 1 {
		lapse = actuarial.LapseStress{Base: lapse, Factor: f}
	}
	kernels := make([]policy.Kernel, len(b.Portfolio.Contracts))
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
			return nil, fmt.Errorf("alm: contract %d: %w", i, err)
		}
		if kernels[i], err = c.Compile(dec); err != nil {
			return nil, fmt.Errorf("alm: contract %d: %w", i, err)
		}
	}
	return kernels, nil
}

// Blocks returns the blocks the valuer executes, in the order every
// per-block result is returned in.
func (j *JobValuer) Blocks() []*eeb.Block { return j.blocks }

// Outer returns the blocks' common outer sample size n_P.
func (j *JobValuer) Outer() int { return j.blocks[0].Outer }

// scratch holds every reusable buffer of one valuation walk: the pooled
// scenario panels plus the per-path working slices. One scratch serves all
// outer*inner paths of a slice; it is single-goroutine state, created per
// walk and released (panels returned to the pool) when the walk ends.
type scratch struct {
	pool  *stochastic.BatchPool
	inner *stochastic.Batch // nil when the source cannot batch inner paths
	outer *stochastic.Batch // nil when the source cannot batch outer paths

	returns []float64 // book returns fed to the contracts (outer year 1 + inner years)
	book    []float64 // fund credited-return buffer
	market  []float64 // fund market-return buffer
	disc    []float64 // per-policy-year inner discount factors
	sums    []float64 // per slot (JobValuer.slots): the inner-path sum of the current outer path
	y1      []float64 // per block: the Y1 of the current outer path
	idx     []int     // fund grid-index buffer
}

// newScratch sizes a scratch for the job and draws panels from the pool
// when the scenario source supports batching.
func (j *JobValuer) newScratch() *scratch {
	m, n := j.maxTerm, len(j.blocks)
	floats := make([]float64, 4*m+2*n)
	sc := &scratch{
		pool:    j.pool,
		returns: floats[:m:m],
		book:    floats[m : 2*m : 2*m],
		market:  floats[2*m : 3*m : 3*m],
		disc:    floats[3*m : 4*m : 4*m],
		sums:    floats[4*m : 4*m+n : 4*m+n],
		y1:      floats[4*m+n:],
		idx:     make([]int, m+1),
	}
	if ib, ok := j.src.(stochastic.InnerBatcher); ok {
		sc.inner = ib.NewBatch(j.pool, innerChunk)
		if _, ok := j.src.(stochastic.OuterBatcher); ok && sc.inner != nil {
			sc.outer = ib.NewBatch(j.pool, outerChunk)
		}
	}
	return sc
}

// release returns the scratch's panels to the pool. The scratch must not be
// used afterwards.
func (sc *scratch) release() {
	sc.pool.Put(sc.inner)
	sc.pool.Put(sc.outer)
	sc.inner, sc.outer = nil, nil
}

// addPresentValues adds, to each block's running sum in sc.sums, the time-1
// present value of the block's liability cash flows along one inner
// risk-neutral scenario, given the year-1 fund return realised on the outer
// path. What does not depend on the block is done once: the returns buffer
// carries the outer year-1 book return at index 0 and the inner path's book
// returns for policy years 2..T after it, and flows at policy year t are
// discounted from time t back to time 1 with the inner path's discount
// factor over t-1 years, read at the grid indices the fund walk just
// computed.
func (j *JobValuer) addPresentValues(outerReturn float64, inner *stochastic.Scenario, sc *scratch) {
	returns := sc.returns
	returns[0] = outerReturn
	copy(returns[1:], j.fund.ReturnsInto(inner, j.maxTerm-1, sc.book, sc.market, sc.idx))
	disc := inner.DiscountsAt(sc.idx[:j.maxTerm], sc.disc)
	sums := sc.sums
	for _, book := range j.books {
		book.AddPresentValues(returns, disc, sums)
		sums = sums[book.Width():]
	}
}

// OuterState captures the F1-measurable state of an outer path used both to
// condition inner simulations and as the LSMC regression features.
type OuterState struct {
	Scenario   *stochastic.Scenario
	FundReturn float64 // year-1 book return I_1
	Discount   float64 // D(0,1) on the outer path
}

// outerState materialises the F1 state of an outer scenario, using the
// scratch's fund buffers.
func (j *JobValuer) outerState(s *stochastic.Scenario, sc *scratch) OuterState {
	returns := j.fund.ReturnsInto(s, 1, sc.book, sc.market, sc.idx)
	return OuterState{Scenario: s, FundReturn: returns[0], Discount: s.Discount(1)}
}

// forEachOuter walks outer paths [from, to) in order, materialising each
// path's F1 state with the scratch's buffers — through the panel-batched
// generator when the source supports it, one path at a time otherwise — and
// invokes fn for every path. fn's OuterState (and its Scenario view) is
// valid only for the duration of the call.
func (j *JobValuer) forEachOuter(from, to int, sc *scratch, fn func(i int, st OuterState) error) error {
	if ob, ok := j.src.(stochastic.OuterBatcher); ok && sc.outer != nil {
		for i0 := from; i0 < to; i0 += sc.outer.Cap() {
			n := min(sc.outer.Cap(), to-i0)
			ob.OuterBatch(i0, n, sc.outer)
			for q := 0; q < n; q++ {
				if err := fn(i0+q, j.outerState(sc.outer.View(q), sc)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for i := from; i < to; i++ {
		if err := fn(i, j.outerState(j.src.Outer(i), sc)); err != nil {
			return err
		}
	}
	return nil
}

// valueOuter computes every block's Y1 for one outer path: the inner
// risk-neutral average of the time-1 present value over nInner conditional
// paths, batched innerChunk at a time when the source supports it. Each
// inner path is generated, and the fund walked along it, once; every block
// accumulates its own sum in inner-path order. The returned slice (one value
// per block) is the scratch's and is overwritten by the next call.
func (j *JobValuer) valueOuter(i, nInner int, outer OuterState, sc *scratch) []float64 {
	clear(sc.sums)
	if ib, ok := j.src.(stochastic.InnerBatcher); ok && sc.inner != nil {
		for j0 := 0; j0 < nInner; j0 += sc.inner.Cap() {
			n := min(sc.inner.Cap(), nInner-j0)
			ib.InnerBatch(i, j0, n, outer.Scenario, 1, sc.inner)
			for q := 0; q < n; q++ {
				j.addPresentValues(outer.FundReturn, sc.inner.View(q), sc)
			}
		}
	} else {
		for k := 0; k < nInner; k++ {
			j.addPresentValues(outer.FundReturn, j.src.Inner(i, k, outer.Scenario, 1), sc)
		}
	}
	for bi, s := range j.slots {
		sc.y1[bi] = sc.sums[s] / float64(nInner)
	}
	return sc.y1
}

// ValueRange computes the Y1 values for outer paths [from, to) of every
// block — the unit of distribution: DISAR scatters disjoint outer ranges of
// the job across computing nodes and gathers the local results, which is
// exactly the data-separation pattern Section III describes. The result
// holds one slice per block, in Blocks order. The context is checked
// between outer paths: a cancelled ctx aborts the walk and returns
// ctx.Err(). onPath, when non-nil, is invoked after each completed outer
// path (the grid engine's progress hook) — once, whatever the block count.
func (j *JobValuer) ValueRange(ctx context.Context, from, to int, onPath func()) ([][]float64, error) {
	if from < 0 || to < from {
		return nil, fmt.Errorf("alm: bad outer slice [%d,%d)", from, to)
	}
	out := make([][]float64, len(j.blocks))
	for bi := range out {
		out[bi] = make([]float64, 0, to-from)
	}
	sc := j.newScratch()
	defer sc.release()
	nInner := j.blocks[0].Inner
	err := j.forEachOuter(from, to, sc, func(i int, st OuterState) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for bi, y := range j.valueOuter(i, nInner, st, sc) {
			out[bi] = append(out[bi], y)
		}
		if onPath != nil {
			onPath()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Assemble turns gathered per-outer-path Y1 values — one slice per block, in
// Blocks order, each covering the complete range [0, Outer) — into one
// Result per block. The outer paths are walked once for the job to read
// their discount factors. It is used by the distributed drivers after
// collecting ValueRange results from the computing nodes.
func (j *JobValuer) Assemble(y1 [][]float64) ([]*Result, error) {
	if len(y1) != len(j.blocks) {
		return nil, fmt.Errorf("alm: assembled values for %d blocks, want %d", len(y1), len(j.blocks))
	}
	outer := j.Outer()
	discounted := make([][]float64, len(y1))
	for bi := range y1 {
		if len(y1[bi]) != outer {
			return nil, fmt.Errorf("alm: assembled %d outer values, want %d", len(y1[bi]), outer)
		}
		discounted[bi] = make([]float64, outer)
	}
	sc := j.newScratch()
	defer sc.release()
	err := j.forEachOuter(0, outer, sc, func(i int, st OuterState) error {
		for bi := range y1 {
			discounted[bi][i] = st.Discount * y1[bi][i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(y1))
	for bi := range y1 {
		results[bi] = summarize(y1[bi], discounted[bi], "nested")
	}
	return results, nil
}
