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
// once and then served from the cache. One Set is the shared scenario pool
// of a stress campaign — the base job populates it and every shocked job
// derives its paths from it (Derive) instead of regenerating them, so a
// 7-module campaign pays the generation cost of roughly one valuation.
//
// Memory grows with the number of distinct paths requested (outer +
// outer*inner scenarios); size campaigns accordingly.
//
// The cache is sharded: lookups hash the path index onto one of setShards
// independent mutex-protected maps, so the workers of an elastic pool
// hitting the shared scenario pool of a campaign contend on 1/setShards of
// the lock traffic a single cache mutex would serialise.
type Set struct {
	src *PathSource

	shards [setShards]setShard

	generated atomic.Int64
}

// setShards is the cache shard count: a power of two comfortably above the
// worker counts elastic pools run at (8-32), so shard collisions stay rare
// without bloating the per-set footprint.
const setShards = 16

// setShard is one independently locked slice of the cache.
type setShard struct {
	mu    sync.Mutex
	outer map[int]*setEntry
	inner map[innerKey]*setEntry
}

type innerKey struct {
	i, j int
	year float64
}

// outerShard maps an outer path index onto its shard. The Fibonacci mix
// spreads the sequential indices of a slice walk across every shard.
func outerShard(i int) uint64 {
	return (uint64(i+1) * 0x9e3779b97f4a7c15) >> 60
}

// innerShard maps an (outer, inner) pair onto its shard.
func innerShard(i, j int) uint64 {
	return ((uint64(i+1)*0x9e3779b97f4a7c15 ^ uint64(j+1)*0xc2b2ae3d27d4eb4f) * 0x9e3779b97f4a7c15) >> 60
}

// setEntry lets concurrent readers of the same missing path block on one
// generation instead of holding the shard lock across the simulation. done
// flips (with release ordering) after s is written, so Lookup can observe a
// completed entry without touching the once.
type setEntry struct {
	once sync.Once
	s    *Scenario
	done atomic.Bool
}

// NewSet returns an empty memoizing source over the generator, rooted at the
// valuation seed. A Set and a PathSource with the same generator and seed
// serve identical scenarios.
func NewSet(gen *Generator, seed uint64) *Set {
	s := &Set{src: NewPathSource(gen, seed)}
	for k := range s.shards {
		s.shards[k].outer = make(map[int]*setEntry)
		s.shards[k].inner = make(map[innerKey]*setEntry)
	}
	return s
}

// outerEntry returns the cache entry of outer path i, creating it empty.
func (s *Set) outerEntry(i int) *setEntry {
	sh := &s.shards[outerShard(i)]
	sh.mu.Lock()
	e, ok := sh.outer[i]
	if !ok {
		e = &setEntry{}
		sh.outer[i] = e
	}
	sh.mu.Unlock()
	return e
}

// Outer implements Source.
func (s *Set) Outer(i int) *Scenario {
	e := s.outerEntry(i)
	e.once.Do(func() {
		e.s = s.src.Outer(i)
		s.generated.Add(1)
		e.done.Store(true)
	})
	return e.s
}

// Lookup returns outer path i if the set has already generated (or
// installed) it, without triggering generation. An entry whose generation is
// still in flight reports absent — callers fall back to Outer (which blocks
// on the single generation) or to a remote fetch.
func (s *Set) Lookup(i int) (*Scenario, bool) {
	sh := &s.shards[outerShard(i)]
	sh.mu.Lock()
	e, ok := sh.outer[i]
	sh.mu.Unlock()
	if !ok || !e.done.Load() {
		return nil, false
	}
	return e.s, true
}

// Install memoizes an externally obtained outer path i — the cluster's
// prefetch installs scenarios fetched from the shard's owner node here. The
// caller must supply exactly the scenario the set would have generated itself
// (generation is deterministic per index, so a faithful fetch always does). A
// scenario off the generator's grid is refused: a batched walk copies
// memoized paths into fixed-width panels, where a short path would leave
// stale values behind instead of failing (Restore holds every driver path to
// the rate path's length). When a local generation raced the fetch and won,
// the generated scenario stays and the fetched copy is dropped.
func (s *Set) Install(i int, sc *Scenario) error {
	g := s.src.gen
	if sc.Dt != g.dt || len(sc.Rates) != g.steps+1 || len(sc.Equities) != len(g.eqs) || len(sc.Currencies) != len(g.fxs) {
		return fmt.Errorf("stochastic: installed path %d is off the set's grid (dt %v, %d points, %d equities, %d currencies)",
			i, sc.Dt, len(sc.Rates), len(sc.Equities), len(sc.Currencies))
	}
	e := s.outerEntry(i)
	e.once.Do(func() {
		e.s = sc
		e.done.Store(true)
	})
	return nil
}

// Inner implements Source. The conditioning outer scenario is part of the
// source's own state (outer path i), so the passed outer is ignored beyond
// the index — callers and derived sources stay consistent by construction.
func (s *Set) Inner(i, j int, _ *Scenario, branchYear float64) *Scenario {
	k := innerKey{i: i, j: j, year: branchYear}
	sh := &s.shards[innerShard(i, j)]
	sh.mu.Lock()
	e, ok := sh.inner[k]
	if !ok {
		e = &setEntry{}
		sh.inner[k] = e
	}
	sh.mu.Unlock()
	e.once.Do(func() {
		e.s = s.src.Inner(i, j, s.Outer(i), branchYear)
		s.generated.Add(1)
		e.done.Store(true)
	})
	return e.s
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
