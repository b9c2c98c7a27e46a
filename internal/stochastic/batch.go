package stochastic

import (
	"sync"

	"disarcloud/internal/finmath"
)

// Batch is a panel of up to Cap scenarios stored in contiguous memory: one
// []float64 panel per risk factor, laid out column-major over a (time x
// path) matrix, so path p's trajectory is the contiguous column
// panel[p*(steps+1) : (p+1)*(steps+1)]. The valuation hot loop fills a batch
// N paths at a time and walks each column through zero-copy *Scenario views,
// so the per-path slice allocations of one-at-a-time generation disappear
// entirely and a stress transform can shock the whole panel in place.
//
// A Batch is owned by exactly one goroutine between a fill and the next
// fill; views alias the panels and are invalidated by refills. Return
// batches to their BatchPool when done.
type Batch struct {
	shape batchShape
	n     int     // paths currently filled
	dt    float64 // grid spacing of the current fill

	rates, credit, discount []float64   // cap*(steps+1) each
	equities, currencies    [][]float64 // one panel per index

	// views are pre-wired Scenario headers aliasing the panels, one per
	// path slot; View(p) hands them out without allocating.
	views []Scenario

	// genScratch carries generateInto's per-step NormFill (shocks, and the
	// raw draws under a correlation structure): 2*NumFactors values.
	genScratch []float64
	// mulDisc/mulDrift hold the per-time-step transform multipliers of an
	// in-place panel shock — computed once per apply instead of once per
	// path per step.
	mulDisc, mulDrift []float64
}

// batchShape keys pooled panels: path capacity, grid steps and driver
// counts fully determine every buffer size.
type batchShape struct {
	cap, steps, nEq, nFx int
}

func newBatch(sh batchShape) *Batch {
	cols := sh.steps + 1
	b := &Batch{
		shape:      sh,
		rates:      make([]float64, sh.cap*cols),
		credit:     make([]float64, sh.cap*cols),
		discount:   make([]float64, sh.cap*cols),
		equities:   make([][]float64, sh.nEq),
		currencies: make([][]float64, sh.nFx),
		views:      make([]Scenario, sh.cap),
		genScratch: make([]float64, 2*(2+sh.nEq+sh.nFx)),
		mulDisc:    make([]float64, cols),
		mulDrift:   make([]float64, cols),
	}
	for i := range b.equities {
		b.equities[i] = make([]float64, sh.cap*cols)
	}
	for i := range b.currencies {
		b.currencies[i] = make([]float64, sh.cap*cols)
	}
	eqHeads := make([][]float64, sh.cap*sh.nEq)
	fxHeads := make([][]float64, sh.cap*sh.nFx)
	for p := 0; p < sh.cap; p++ {
		lo, hi := p*cols, (p+1)*cols
		v := &b.views[p]
		v.Rates = b.rates[lo:hi:hi]
		v.Credit = b.credit[lo:hi:hi]
		v.discount = b.discount[lo:hi:hi]
		v.Equities = eqHeads[p*sh.nEq : (p+1)*sh.nEq : (p+1)*sh.nEq]
		for i := range b.equities {
			v.Equities[i] = b.equities[i][lo:hi:hi]
		}
		v.Currencies = fxHeads[p*sh.nFx : (p+1)*sh.nFx : (p+1)*sh.nFx]
		for i := range b.currencies {
			v.Currencies[i] = b.currencies[i][lo:hi:hi]
		}
	}
	return b
}

// Cap returns the batch's path capacity.
func (b *Batch) Cap() int { return b.shape.cap }

// Len returns how many paths the current fill holds.
func (b *Batch) Len() int { return b.n }

// View returns the p-th filled path as a read-only Scenario aliasing the
// panels. The view is valid until the batch is refilled or returned to its
// pool.
func (b *Batch) View(p int) *Scenario { return &b.views[p] }

// BatchPool recycles batches keyed by panel shape, so the steady state of a
// long valuation (and of every job sharing the pool through a service)
// allocates no panel memory at all. The zero receiver is valid: a nil pool
// allocates fresh batches and drops returned ones.
type BatchPool struct {
	mu    sync.Mutex
	pools map[batchShape]*sync.Pool
}

// NewBatchPool returns an empty pool. One pool is typically shared by every
// worker of a service; it is safe for concurrent use.
func NewBatchPool() *BatchPool {
	return &BatchPool{pools: make(map[batchShape]*sync.Pool)}
}

// sharedBatchPool backs sources and valuers that were not handed an explicit
// pool, so the allocation-free path is the default, not an opt-in.
var sharedBatchPool = NewBatchPool()

// SharedBatchPool returns the process-wide default pool.
func SharedBatchPool() *BatchPool { return sharedBatchPool }

func (p *BatchPool) get(sh batchShape) *Batch {
	if p == nil {
		return newBatch(sh)
	}
	p.mu.Lock()
	sp, ok := p.pools[sh]
	if !ok {
		sp = &sync.Pool{}
		p.pools[sh] = sp
	}
	p.mu.Unlock()
	if b, ok := sp.Get().(*Batch); ok {
		b.n = 0
		return b
	}
	return newBatch(sh)
}

// Put returns a batch for reuse. The caller must not touch the batch or any
// of its views afterwards.
func (p *BatchPool) Put(b *Batch) {
	if p == nil || b == nil {
		return
	}
	p.mu.Lock()
	sp, ok := p.pools[b.shape]
	if !ok {
		sp = &sync.Pool{}
		p.pools[b.shape] = sp
	}
	p.mu.Unlock()
	sp.Put(b)
}

// newBatch sizes a pooled batch for this generator's grid.
func (g *Generator) newBatch(pool *BatchPool, capacity int) *Batch {
	b := pool.get(batchShape{cap: capacity, steps: g.steps, nEq: len(g.eqs), nFx: len(g.fxs)})
	b.dt = g.dt
	return b
}

// InnerBatcher is implemented by sources that can fill a caller-owned batch
// with consecutive inner paths without per-path allocation. The valuation
// hot loop type-asserts for it and falls back to one-at-a-time Inner calls
// (bit-identical, just slower) when the source cannot batch.
type InnerBatcher interface {
	Source
	// NewBatch returns a batch sized for this source's paths with the given
	// path capacity, drawn from pool (a nil pool allocates). A nil return
	// means the source cannot determine its panel shape; callers must fall
	// back to scalar access.
	NewBatch(pool *BatchPool, capacity int) *Batch
	// InnerBatch fills b with inner paths j0..j0+n-1 of outer path i,
	// conditioned on outer at branchYear. n must not exceed b.Cap().
	InnerBatch(i, j0, n int, outer *Scenario, branchYear float64, b *Batch)
}

// OuterBatcher is the outer-path counterpart of InnerBatcher.
type OuterBatcher interface {
	// OuterBatch fills b with outer paths i0..i0+n-1.
	OuterBatch(i0, n int, b *Batch)
}

// NewBatch implements InnerBatcher.
func (p *PathSource) NewBatch(pool *BatchPool, capacity int) *Batch {
	return p.gen.newBatch(pool, capacity)
}

// InnerBatch implements InnerBatcher: each path is generated from exactly
// the per-index seeded stream Inner uses, into the batch's panels.
func (p *PathSource) InnerBatch(i, j0, n int, outer *Scenario, branchYear float64, b *Batch) {
	b.n = n
	b.dt = p.gen.dt
	var rng finmath.RNG
	for q := 0; q < n; q++ {
		p.innerInto(&rng, i, j0+q, outer, branchYear, &b.views[q], b.genScratch)
	}
}

// innerInto generates inner path j of outer path i into the view v — the
// stream Inner draws, reseeding the caller's rng. Batched fills and the
// memoizing Set's panels both generate through it.
func (p *PathSource) innerInto(rng *finmath.RNG, i, j int, outer *Scenario, branchYear float64, v *Scenario, scratch []float64) {
	rng.Reseed(innerSeed(p.seed, i, j))
	p.gen.generateInto(rng, RiskNeutral, outer, branchYear, v, scratch)
}

// OuterBatch implements OuterBatcher.
func (p *PathSource) OuterBatch(i0, n int, b *Batch) {
	b.n = n
	b.dt = p.gen.dt
	var rng finmath.RNG
	for q := 0; q < n; q++ {
		rng.Reseed(outerSeed(p.seed, i0+q))
		p.gen.generateInto(&rng, RealWorld, nil, 0, &b.views[q], b.genScratch)
	}
}

// NewBatch implements InnerBatcher for the shocked view: panels are sized by
// the base source when it batches, and nil (scalar fallback) otherwise.
func (d *derivedSource) NewBatch(pool *BatchPool, capacity int) *Batch {
	if base, ok := d.base.(InnerBatcher); ok {
		return base.NewBatch(pool, capacity)
	}
	return nil
}

// InnerBatch implements InnerBatcher: the base paths land in the panels
// (batched generation, or copies out of a memoizing Set) and the shock is
// applied to the whole panel in place — one transform pass instead of one
// freshly allocated Derived scenario per path per access. b comes from
// NewBatch, so the base batches.
func (d *derivedSource) InnerBatch(i, j0, n int, _ *Scenario, branchYear float64, b *Batch) {
	d.base.(InnerBatcher).InnerBatch(i, j0, n, d.base.Outer(i), branchYear, b)
	d.t.ApplyInnerBatch(b)
}

// OuterBatch implements OuterBatcher for the shocked view.
func (d *derivedSource) OuterBatch(i0, n int, b *Batch) {
	if base, ok := d.base.(OuterBatcher); ok {
		base.OuterBatch(i0, n, b)
	} else {
		b.n = n
		for q := 0; q < n; q++ {
			copyScenarioInto(d.base.Outer(i0+q), &b.views[q])
		}
		b.dt = b.views[0].Dt
	}
	d.t.ApplyOuterBatch(b)
}

// copyColumns copies paths from..from+n-1 of src into paths 0..n-1 of dst —
// one contiguous copy per risk factor, the panels being column-major — and
// stamps the grid spacing on dst and on every copied view. Both batches have
// the same grid.
func copyColumns(dst, src *Batch, from, n int) {
	cols := src.shape.steps + 1
	lo, hi := from*cols, (from+n)*cols
	copy(dst.rates, src.rates[lo:hi])
	copy(dst.credit, src.credit[lo:hi])
	copy(dst.discount, src.discount[lo:hi])
	for k := range src.equities {
		copy(dst.equities[k], src.equities[k][lo:hi])
	}
	for k := range src.currencies {
		copy(dst.currencies[k], src.currencies[k][lo:hi])
	}
	dst.dt = src.dt
	for q := range dst.views[:n] {
		dst.views[q].Dt = src.dt
	}
}

// copyScenarioInto copies src into the pre-wired view dst. Lengths must
// match (the batch was shaped by the same generator that produced src).
func copyScenarioInto(src, dst *Scenario) {
	dst.Dt = src.Dt
	copy(dst.Rates, src.Rates)
	copy(dst.Credit, src.Credit)
	copy(dst.discount, src.discount)
	for i := range src.Equities {
		copy(dst.Equities[i], src.Equities[i])
	}
	for i := range src.Currencies {
		copy(dst.Currencies[i], src.Currencies[i])
	}
}
