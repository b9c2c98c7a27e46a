package stochastic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"disarcloud/internal/finmath"
)

// Source supplies the nested Monte Carlo scenario streams of a valuation:
// real-world outer paths and risk-neutral inner paths branching off an outer
// state. Implementations must be safe for concurrent use and must return
// scenarios the caller treats as read-only — sources are shared across the
// worker goroutines of one valuation and, in stress campaigns, across
// concurrent jobs.
type Source interface {
	// Outer returns real-world outer path i.
	Outer(i int) *Scenario
	// Inner returns risk-neutral inner path j of outer path i, conditioned on
	// the state of outer at branchYear.
	Inner(i, j int, outer *Scenario, branchYear float64) *Scenario
}

// outerSeed and innerSeed derive the per-path RNG seeds from a valuation
// seed. The derivation is the partition-independence contract of the whole
// engine: any source rooted at the same seed produces the same path for the
// same index, no matter how the outer range is sliced across workers.
func outerSeed(seed uint64, i int) uint64 {
	return seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))
}

func innerSeed(seed uint64, i, j int) uint64 {
	return seed ^ (0x9e3779b97f4a7c15 * uint64(i+1)) ^ (0xc2b2ae3d27d4eb4f * uint64(j+1))
}

// PathSource is the plain generator-backed source: every access simulates
// the path afresh from its per-index seed. It holds no state and is the
// default for standalone valuations.
type PathSource struct {
	gen  *Generator
	seed uint64
}

// NewPathSource returns a source that generates each requested path from the
// deterministic per-index stream rooted at seed.
func NewPathSource(gen *Generator, seed uint64) *PathSource {
	return &PathSource{gen: gen, seed: seed}
}

// Outer implements Source.
func (p *PathSource) Outer(i int) *Scenario {
	return p.gen.Generate(finmath.NewRNG(outerSeed(p.seed, i)), RealWorld)
}

// Inner implements Source.
func (p *PathSource) Inner(i, j int, outer *Scenario, branchYear float64) *Scenario {
	return p.gen.GenerateFrom(finmath.NewRNG(innerSeed(p.seed, i, j)), RiskNeutral, outer, branchYear)
}

// Set is a memoizing Source: each outer and inner path is generated at most
// once and then served from the memo. One Set is the shared scenario pool of
// a stress campaign — the base job populates it and every shocked job
// derives its paths from it (Derive) instead of regenerating them, so a
// 7-module campaign pays the generation cost of roughly one valuation.
//
// The memo holds one entry per outer path: the path itself and, per branch
// year, that path's inner paths as one column-major panel — the Batch layout
// the valuer walks, inner path j in column j. A Set is an InnerBatcher: a
// chunk request is one lookup, generation of only the columns no earlier
// request produced (from the per-index streams PathSource uses, so the bits
// are the same), and one contiguous copy per risk factor into the caller's
// batch. Scalar Inner serves a view of the same column.
//
// Memory grows with the paths asked for: a panel holds columns up to the
// highest inner index requested of it (re-allocated, by copy, when a later
// request reaches past it), 8*(steps+1) bytes per risk factor per column —
// rate, credit, the discount curve, every equity and currency index — plus
// a view header per column. Size campaigns accordingly.
//
// Entries are found in setShards independent mutex-protected maps keyed by
// the Fibonacci-hashed outer index, so the workers of an elastic pool hitting
// the shared scenario pool of a campaign contend on 1/setShards of the lock
// traffic a single mutex would serialise; generation into an entry holds only
// that entry's lock.
type Set struct {
	src *PathSource

	shards [setShards]setShard

	generated atomic.Int64
}

// setShards is the memo shard count: a power of two comfortably above the
// worker counts elastic pools run at (8-32), so shard collisions stay rare
// without bloating the per-set footprint.
const setShards = 16

// setShard is one independently locked slice of the memo.
type setShard struct {
	mu    sync.Mutex
	paths map[int]*setPath
}

// shardOf maps an outer path index onto its shard. The Fibonacci mix
// spreads the sequential indices of a slice walk across every shard.
func shardOf(i int) uint64 {
	return (uint64(i+1) * 0x9e3779b97f4a7c15) >> 60
}

// setPath is the memo of one outer path. mu serialises generation into the
// entry (the outer path and every panel); outer is published atomically so
// Lookup never waits on a generation in flight.
type setPath struct {
	mu    sync.Mutex
	outer atomic.Pointer[Scenario]
	inner []innerPanel // one per branch year asked for
}

// innerPanel holds the inner paths of one outer path branched at year:
// column j of b is inner path j once done[j] is set, and is never written
// again, so readers copy it without the entry lock.
type innerPanel struct {
	year float64
	b    *Batch
	done []bool
}

// NewSet returns an empty memoizing source over the generator, rooted at the
// valuation seed. A Set and a PathSource with the same generator and seed
// serve identical scenarios.
func NewSet(gen *Generator, seed uint64) *Set {
	s := &Set{src: NewPathSource(gen, seed)}
	for k := range s.shards {
		s.shards[k].paths = make(map[int]*setPath)
	}
	return s
}

// path returns the memo entry of outer path i, creating it empty.
func (s *Set) path(i int) *setPath {
	sh := &s.shards[shardOf(i)]
	sh.mu.Lock()
	e, ok := sh.paths[i]
	if !ok {
		e = &setPath{}
		sh.paths[i] = e
	}
	sh.mu.Unlock()
	return e
}

// outerLocked returns the entry's outer path, generating it when neither a
// generation nor an Install has resolved it yet. e.mu must be held.
func (s *Set) outerLocked(e *setPath, i int) *Scenario {
	if o := e.outer.Load(); o != nil {
		return o
	}
	o := s.src.Outer(i)
	s.generated.Add(1)
	e.outer.Store(o)
	return o
}

// Outer implements Source.
func (s *Set) Outer(i int) *Scenario {
	e := s.path(i)
	if o := e.outer.Load(); o != nil {
		return o
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return s.outerLocked(e, i)
}

// Lookup returns outer path i if the set has already generated (or
// installed) it, without triggering generation. A path whose generation is
// still in flight reports absent — callers fall back to Outer (which blocks
// on the single generation) or to a remote fetch.
func (s *Set) Lookup(i int) (*Scenario, bool) {
	sh := &s.shards[shardOf(i)]
	sh.mu.Lock()
	e := sh.paths[i]
	sh.mu.Unlock()
	if e == nil {
		return nil, false
	}
	o := e.outer.Load()
	return o, o != nil
}

// Install memoizes an externally obtained outer path i — the cluster's
// prefetch installs scenarios fetched from the shard's owner node here. The
// caller must supply exactly the scenario the set would have generated itself
// (generation is deterministic per index, so a faithful fetch always does). A
// scenario off the generator's grid is refused: inner paths branch off it
// into fixed-width panels, where a short path would leave stale values
// behind instead of failing (Restore holds every driver path to the rate
// path's length). When a local generation raced the fetch and won, the
// generated scenario stays and the fetched copy is dropped.
func (s *Set) Install(i int, sc *Scenario) error {
	g := s.src.gen
	if sc.Dt != g.dt || len(sc.Rates) != g.steps+1 || len(sc.Equities) != len(g.eqs) || len(sc.Currencies) != len(g.fxs) {
		return fmt.Errorf("stochastic: installed path %d is off the set's grid (dt %v, %d points, %d equities, %d currencies)",
			i, sc.Dt, len(sc.Rates), len(sc.Equities), len(sc.Currencies))
	}
	e := s.path(i)
	e.mu.Lock()
	if e.outer.Load() == nil {
		e.outer.Store(sc)
	}
	e.mu.Unlock()
	return nil
}

// Inner implements Source with a view of the memo's column. The conditioning
// outer scenario is part of the source's own state (outer path i), so the
// passed outer is ignored beyond the index — callers and derived sources
// stay consistent by construction.
func (s *Set) Inner(i, j int, _ *Scenario, branchYear float64) *Scenario {
	return s.innerPanel(i, j, j+1, branchYear).View(j)
}

// NewBatch implements InnerBatcher. Callers' batches come from pool; the
// memo's own panels never do, because the set keeps them.
func (s *Set) NewBatch(pool *BatchPool, capacity int) *Batch {
	return s.src.gen.newBatch(pool, capacity)
}

// InnerBatch implements InnerBatcher: inner paths j0..j0+n-1 of outer path i
// are copied out of the memo's panel, which generates those of them no
// earlier request did. The passed outer is ignored, as in Inner.
func (s *Set) InnerBatch(i, j0, n int, _ *Scenario, branchYear float64, b *Batch) {
	b.n = n
	copyColumns(b, s.innerPanel(i, j0, j0+n, branchYear), j0, n)
}

// innerPanel returns a panel of outer path i's inner paths branched at
// branchYear whose columns [lo, hi) are generated, generating those that
// are not. The columns stay valid, unchanged, for the life of the set.
func (s *Set) innerPanel(i, lo, hi int, branchYear float64) *Batch {
	e := s.path(i)
	e.mu.Lock()
	defer e.mu.Unlock()
	k := 0
	for k < len(e.inner) && e.inner[k].year != branchYear {
		k++
	}
	if k == len(e.inner) {
		e.inner = append(e.inner, innerPanel{year: branchYear})
	}
	p := &e.inner[k]
	if p.b == nil || p.b.Cap() < hi {
		s.grow(p, hi)
	}
	var rng finmath.RNG
	for j := lo; j < hi; j++ {
		if p.done[j] {
			continue
		}
		s.src.innerInto(&rng, i, j, s.outerLocked(e, i), branchYear, &p.b.views[j], p.b.genScratch)
		p.done[j] = true
		s.generated.Add(1)
	}
	return p.b
}

// grow replaces the panel's batch with one of exactly n columns, carrying
// the generated ones over. Readers of the old batch are unaffected: it is
// never written again.
func (s *Set) grow(p *innerPanel, n int) {
	b := s.src.gen.newBatch(nil, n)
	done := make([]bool, n)
	if p.b != nil {
		copyColumns(b, p.b, 0, p.b.Cap())
		copy(done, p.done)
	}
	p.b, p.done = b, done
}

// Generated returns how many scenarios the set has simulated so far —
// derived accesses do not count, which is what makes scenario-set reuse
// observable in tests and benchmarks.
func (s *Set) Generated() int64 { return s.generated.Load() }

// Derive returns a source whose paths are the transform applied to this
// set's paths. Deriving from a populated set performs no scenario
// generation at all.
func (s *Set) Derive(t Transform) Source { return Derived(s, t) }

// Derived wraps any source with a shock transform: outer paths through
// ApplyOuter, inner paths through ApplyInner. The identity transform
// returns the base source itself.
func Derived(base Source, t Transform) Source {
	if t.IsZero() {
		return base
	}
	return &derivedSource{base: base, t: t}
}

// derivedSource is a shocked view over a shared base source.
type derivedSource struct {
	base Source
	t    Transform
}

// Outer implements Source.
func (d *derivedSource) Outer(i int) *Scenario {
	return d.t.ApplyOuter(d.base.Outer(i))
}

// Inner implements Source. The base inner path conditions on the BASE outer
// path; transforming it yields exactly the inner path the shocked model
// would have generated from the shocked outer state (the transform commutes
// with the conditioning, see Transform).
func (d *derivedSource) Inner(i, j int, _ *Scenario, branchYear float64) *Scenario {
	return d.t.ApplyInner(d.base.Inner(i, j, d.base.Outer(i), branchYear))
}
