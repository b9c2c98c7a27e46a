package alm

import (
	"context"
	"fmt"
	"math"
	"testing"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/eeb"
	"disarcloud/internal/finmath"
	"disarcloud/internal/fund"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
)

// referenceValuer is the walk this package ran before the job walk and the
// contract kernel replaced it, kept as the oracle they are pinned against:
// one block at a time, one path at a time, the fund walked for the block's
// own MaxTerm, every contract evaluated through the public FlowsInto
// schedule and weighted with all three decrement columns, the discount
// curve looked up per policy year. Nothing in it is shared with the code
// under test above the stochastic/fund/policy/actuarial layers.
type referenceValuer struct {
	block      *eeb.Block
	src        stochastic.Source
	fund       *fund.Fund
	decrements []*actuarial.DecrementTable
}

func newReferenceValuer(t testing.TB, b *eeb.Block, seed uint64) *referenceValuer {
	t.Helper()
	gen, err := stochastic.NewGenerator(b.Market)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := fund.New(b.Fund, b.Market)
	if err != nil {
		t.Fatal(err)
	}
	r := &referenceValuer{block: b, src: b.Scenarios, fund: fd}
	if r.src == nil {
		r.src = stochastic.NewPathSource(gen, seed)
	}
	var lapse actuarial.LapseModel = DefaultLapse()
	if f := b.Biometric.LapseScale(); f != 1 {
		lapse = actuarial.LapseStress{Base: lapse, Factor: f}
	}
	for i, c := range b.Portfolio.Contracts {
		var mort actuarial.MortalityModel = actuarial.ForGender(c.Gender)
		if f := b.Biometric.MortalityScale(); f != 1 {
			mort = actuarial.ScaledMortality{Base: mort, Factor: f}
		}
		eng, err := actuarial.NewEngine(mort, lapse)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := eng.Decrements(c.Age, c.Term)
		if err != nil {
			t.Fatalf("contract %d: %v", i, err)
		}
		r.decrements = append(r.decrements, dec)
	}
	return r
}

// presentValue is the pre-kernel per-path evaluation, verbatim.
func (r *referenceValuer) presentValue(t testing.TB, outerReturn float64, inner *stochastic.Scenario) float64 {
	maxTerm := r.block.Portfolio.MaxTerm()
	returns := make([]float64, maxTerm)
	returns[0] = outerReturn
	innerReturns := r.fund.ReturnsInto(inner, maxTerm-1, make([]float64, maxTerm), make([]float64, maxTerm), make([]int, maxTerm+1))
	copy(returns[1:], innerReturns)

	disc := make([]float64, maxTerm)
	for k := range disc {
		disc[k] = inner.Discount(float64(k))
	}
	flows := policy.FlowSchedule{
		Death:     make([]float64, maxTerm),
		Surrender: make([]float64, maxTerm),
		Survival:  make([]float64, maxTerm),
	}
	sums := make([]float64, maxTerm)

	total := 0.0
	for ci, c := range r.block.Portfolio.Contracts {
		if err := c.FlowsInto(returns, &flows, sums); err != nil {
			t.Fatal(err)
		}
		dec := r.decrements[ci]
		pv := 0.0
		for year := 1; year <= c.Term; year++ {
			k := year - 1
			pv += disc[k] * (dec.Death[k]*flows.Death[k] +
				dec.Lapse[k]*flows.Surrender[k] +
				dec.InForce[k]*flows.Survival[k])
		}
		pv += disc[c.Term-1] * dec.InForce[c.Term-1] * flows.Maturity
		total += pv
	}
	return total
}

// y1 values outer paths [from, to) of the block.
func (r *referenceValuer) y1(t testing.TB, from, to int) []float64 {
	out := make([]float64, 0, to-from)
	for i := from; i < to; i++ {
		outer := r.src.Outer(i)
		outerReturn := r.fund.Returns(outer, 1)[0]
		sum := 0.0
		for j := 0; j < r.block.Inner; j++ {
			sum += r.presentValue(t, outerReturn, r.src.Inner(i, j, outer, 1))
		}
		out = append(out, sum/float64(r.block.Inner))
	}
	return out
}

// referenceTolerance bounds |walk - reference| relative to the reference.
// The walk values a contract through the compiled policy.Kernel, the
// reference through the FlowsInto schedule: one real number, two
// associations (policy.Kernel). The worst Y1 seen is 4 ulp apart; 1e-13 is
// ~450. What the walk promises about ITSELF — alone == in its job, any
// partition, batched == scalar — stays bitwise and is asserted so below.
const referenceTolerance = 1e-13

func withinReference(got, want float64) bool {
	if want != 0 {
		worstReferenceGap = max(worstReferenceGap, math.Abs(got-want)/math.Abs(want))
	}
	return math.Abs(got-want) <= referenceTolerance*math.Abs(want)
}

// worstReferenceGap is the largest relative gap withinReference has seen,
// logged by TestJobWalkMatchesPerBlockReference.
var worstReferenceGap float64

// requireJobMatchesReference holds the job walk over blocks, on outer paths
// [from, to), to the per-block reference within referenceTolerance and to
// each block walked alone bit for bit.
func requireJobMatchesReference(t *testing.T, blocks []*eeb.Block, seed uint64, from, to int) {
	t.Helper()
	job, err := NewJobValuer(blocks, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := job.ValueRange(context.Background(), from, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("job walk returned %d Y1 slices for %d blocks", len(got), len(blocks))
	}
	for bi, b := range blocks {
		want := newReferenceValuer(t, b, seed).y1(t, from, to)
		if len(got[bi]) != len(want) {
			t.Fatalf("block %s: %d values, want %d", b.ID, len(got[bi]), len(want))
		}
		v, err := NewValuer(b, seed)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := v.ValueRange(context.Background(), from, to, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !withinReference(got[bi][i], want[i]) {
				t.Fatalf("block %s outer %d: job walk %v (%#x), reference %v (%#x): apart by more than %g relative", b.ID, from+i,
					got[bi][i], math.Float64bits(got[bi][i]), want[i], math.Float64bits(want[i]), referenceTolerance)
			}
			if math.Float64bits(got[bi][i]) != math.Float64bits(alone[i]) {
				t.Fatalf("block %s outer %d: in its job %v (%#x) != alone %v (%#x)", b.ID, from+i,
					got[bi][i], math.Float64bits(got[bi][i]), alone[i], math.Float64bits(alone[i]))
			}
		}
	}
}

// archetypeBlocks generates one of the three Italian-company books at its
// default size and splits it the way core.RunSimulation does (25 contracts
// per type-B block), on the daemon's default market and fund.
func archetypeBlocks(t testing.TB, spec policy.GeneratorSpec, outer, inner int, scenarios stochastic.Source) []*eeb.Block {
	t.Helper()
	p, err := policy.Generate(finmath.NewRNG(5), spec) // block MaxTerms 23/25/24, 32/34/35/35, 38/40
	if err != nil {
		t.Fatal(err)
	}
	market := stochastic.Config{
		Horizon:      p.MaxTerm(),
		StepsPerYear: 1,
		Rate: stochastic.VasicekParams{
			R0: 0.015, Speed: 0.25, MeanP: 0.03, MeanQ: 0.025, Sigma: 0.009,
		},
		Equities: []stochastic.GBMParams{{S0: 100, Mu: 0.06, Sigma: 0.18}},
		Credit:   stochastic.CIRParams{L0: 0.008, Speed: 0.5, Mean: 0.012, Sigma: 0.03},
	}
	blocks, err := eeb.SplitPortfolio(p, fund.TypicalItalianFund(5, market), market, eeb.SplitSpec{
		MaxContractsPerBlock: 25, Outer: outer, Inner: inner, Scenarios: scenarios,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eeb.TypeB(blocks)
}

// TestJobWalkMatchesPerBlockReference is the contract of the fusion and of
// the kernel together: walking a job's blocks at once — each scenario
// generated once, the fund walked once for the widest block, every contract
// through the compiled kernel — yields the Y1 the per-block schedule walk
// yields, within referenceTolerance (the kernel is an algebraic rewrite of
// the schedule; the fusion itself moves no bit, which
// TestSingleBlockValuerIsTheOneBlockJob holds bitwise).
func TestJobWalkMatchesPerBlockReference(t *testing.T) {
	const seed = 2016
	for bi, spec := range policy.ItalianCompanySpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			blocks := archetypeBlocks(t, spec, 7, 3, nil)
			if want := []int{3, 4, 2}[bi]; len(blocks) != want {
				t.Fatalf("%d contracts split into %d blocks, want %d", spec.NumContracts, len(blocks), want)
			}
			// The prefix argument only bites when blocks differ in MaxTerm.
			terms := map[int]bool{}
			for _, b := range blocks {
				terms[b.Portfolio.MaxTerm()] = true
			}
			if len(terms) < 2 {
				t.Fatalf("every block of %s has the same MaxTerm; pick a seed that separates them", spec.Name)
			}
			requireJobMatchesReference(t, blocks, seed, 0, 7)
		})
	}

	savings := policy.ItalianCompanySpecs()[0]
	gen, err := stochastic.NewGenerator(archetypeBlocks(t, savings, 1, 1, nil)[0].Market)
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		src  func() stochastic.Source
	}{
		{"path source", func() stochastic.Source { return stochastic.NewPathSource(gen, seed) }},
		{"memoising set (batched)", func() stochastic.Source { return stochastic.NewSet(gen, seed) }},
		{"memoising set (scalar fallback)", func() stochastic.Source { return opaqueSource{stochastic.NewSet(gen, seed)} }},
		{"derived view with a rate shock", func() stochastic.Source {
			return stochastic.Derived(stochastic.NewSet(gen, seed), stochastic.Transform{RateShift: 0.01})
		}},
	}
	for _, s := range sources {
		t.Run(s.name, func(t *testing.T) {
			requireJobMatchesReference(t, archetypeBlocks(t, savings, 6, 4, s.src()), seed, 0, 6)
		})
	}

	t.Run("sub-range misaligned with the panels", func(t *testing.T) {
		requireJobMatchesReference(t, archetypeBlocks(t, savings, 40, 2, nil), seed, 3, 37)
	})

	t.Run("two equities and an FX sleeve", func(t *testing.T) {
		hot := hotPathBlock(t, nil)
		blocks, err := eeb.SplitPortfolio(hot.Portfolio, hot.Fund, hot.Market, eeb.SplitSpec{
			MaxContractsPerBlock: 2, Outer: 9, Inner: hot.Inner,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireJobMatchesReference(t, eeb.TypeB(blocks), 2024, 0, 9)
	})
	t.Logf("worst |walk - reference| / |reference| = %.3g (%.1f ulp)", worstReferenceGap, worstReferenceGap/0x1p-52)
}

// TestSingleBlockValuerIsTheOneBlockJob checks the N = 1 case through the
// Valuer API — ValueRange, ValueOuters, ValueOuter and Assemble — against
// the reference and against the block's slot in its job's walk.
func TestSingleBlockValuerIsTheOneBlockJob(t *testing.T) {
	const seed = 7
	blocks := archetypeBlocks(t, policy.ItalianCompanySpecs()[2], 8, 3, nil)
	job, err := NewJobValuer(blocks, seed)
	if err != nil {
		t.Fatal(err)
	}
	if job.Outer() != 8 || len(job.Blocks()) != len(blocks) {
		t.Fatalf("job reports outer %d over %d blocks", job.Outer(), len(job.Blocks()))
	}
	joint, err := job.ValueRange(context.Background(), 0, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := job.Assemble(joint)
	if err != nil {
		t.Fatal(err)
	}
	for bi, b := range blocks {
		v, err := NewValuer(b, seed)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := v.OuterSlice(0, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := newReferenceValuer(t, b, seed).y1(t, 0, 8)
		scattered, err := v.ValueOuters(context.Background(), []int{5, 0, 7}, b.Inner, nil)
		if err != nil {
			t.Fatal(err)
		}
		one, err := v.ValueOuter(5, b.Inner)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			// Bitwise: a block alone and the block in its job. Algebraic: either
			// against the schedule reference.
			if alone[i] != joint[bi][i] || !withinReference(alone[i], want[i]) {
				t.Fatalf("block %s outer %d: alone %v, in its job %v, reference %v", b.ID, i, alone[i], joint[bi][i], want[i])
			}
		}
		if scattered[0] != alone[5] || scattered[1] != alone[0] || scattered[2] != alone[7] || one != alone[5] {
			t.Fatalf("block %s: ValueOuters/ValueOuter drifted from the range walk", b.ID)
		}
		res, err := v.Assemble(alone)
		if err != nil {
			t.Fatal(err)
		}
		if res.BEL != results[bi].BEL || res.SCR != results[bi].SCR || res.StdErr != results[bi].StdErr {
			t.Fatalf("block %s: job Assemble (%v, %v) != block Assemble (%v, %v)",
				b.ID, results[bi].BEL, results[bi].SCR, res.BEL, res.SCR)
		}
	}
	if _, err := job.Assemble(joint[:1]); err == nil {
		t.Fatal("assembly with a block missing accepted")
	}
	joint[1] = joint[1][:4]
	if _, err := job.Assemble(joint); err == nil {
		t.Fatal("assembly with a short block accepted")
	}
}

// onBases copies blocks once per basis, basis-major, as a campaign's shared
// walk lays out the base's blocks and its riders'.
func onBases(blocks []*eeb.Block, bases ...eeb.Biometric) []*eeb.Block {
	out := make([]*eeb.Block, 0, len(bases)*len(blocks))
	for k, bio := range bases {
		for _, b := range blocks {
			c := *b
			c.ID, c.Biometric = fmt.Sprintf("%s#%d", b.ID, k), bio
			out = append(out, &c)
		}
	}
	return out
}

// lifeBases are the best estimate and the Solvency II life stresses.
var lifeBases = []eeb.Biometric{{}, {MortalityFactor: 1.15}, {LapseFactor: 1.5}, {MortalityFactor: 0.8}, {LapseFactor: 0.5}}

// requireBooks checks how the job grouped its blocks: one book per entry of
// widths, of that many bases.
func requireBooks(t *testing.T, job *JobValuer, widths ...int) {
	t.Helper()
	got := make([]int, len(job.books))
	for bk, book := range job.books {
		got[bk] = book.Width()
	}
	if fmt.Sprint(got) != fmt.Sprint(widths) {
		t.Fatalf("book widths %v, want %v", got, widths)
	}
}

// TestSharedChainBasesMatchWalkingAlone: the blocks of a book on k decrement
// bases (the three blocks of the 60-contract book, on 1..5 bases) share one
// policy.Book per block of contracts, and each values bit for bit as it does
// walked alone.
func TestSharedChainBasesMatchWalkingAlone(t *testing.T) {
	const seed = 31
	blocks := archetypeBlocks(t, policy.ItalianCompanySpecs()[0], 6, 4, nil)
	for k := 1; k <= len(lifeBases); k++ {
		t.Run(fmt.Sprintf("%d bases", k), func(t *testing.T) {
			walked := onBases(blocks, lifeBases[:k]...)
			job, err := NewJobValuer(walked, seed)
			if err != nil {
				t.Fatal(err)
			}
			requireBooks(t, job, k, k, k)
			requireJobMatchesReference(t, walked, seed, 0, 6)
		})
	}
}

// TestBlocksWithoutSharedChainsStayApart: blocks that share a walk but not
// a readjustment chain — one contract's participation rate, technical rate
// or term changed on the stressed basis — get books of their own and still
// value as they do walked alone.
func TestBlocksWithoutSharedChainsStayApart(t *testing.T) {
	const seed = 32
	blocks := archetypeBlocks(t, policy.ItalianCompanySpecs()[0], 6, 4, nil)[:1]
	for name, mutate := range map[string]func(*policy.Contract){
		"beta":           func(c *policy.Contract) { c.Beta *= 0.9 },
		"technical rate": func(c *policy.Contract) { c.TechnicalRate += 0.005 },
		"term":           func(c *policy.Contract) { c.Term-- },
	} {
		t.Run(name, func(t *testing.T) {
			walked := onBases(blocks, lifeBases[:3]...)
			odd := *walked[1].Portfolio
			odd.Contracts = append([]policy.Contract(nil), odd.Contracts...)
			mutate(&odd.Contracts[11])
			walked[1].Portfolio = &odd
			job, err := NewJobValuer(walked, seed)
			if err != nil {
				t.Fatal(err)
			}
			requireBooks(t, job, 2, 1)
			requireJobMatchesReference(t, walked, seed, 0, 6)
		})
	}
}

func TestNewJobValuerValidation(t *testing.T) {
	if _, err := NewJobValuer(nil, 1); err == nil {
		t.Fatal("empty block list accepted")
	}
	if _, err := NewJobValuer([]*eeb.Block{nil}, 1); err == nil {
		t.Fatal("nil block accepted")
	}
	blocks := archetypeBlocks(t, policy.ItalianCompanySpecs()[0], 8, 3, nil)
	for name, mutate := range map[string]func(*eeb.Block){
		"outer":  func(b *eeb.Block) { b.Outer++ },
		"inner":  func(b *eeb.Block) { b.Inner++ },
		"fund":   func(b *eeb.Block) { b.Fund.TargetReturn += 0.001 },
		"market": func(b *eeb.Block) { b.Market.Rate.Sigma *= 2 },
		"source": func(b *eeb.Block) { b.Scenarios = opaqueSource{} },
	} {
		odd := *blocks[1]
		mutate(&odd)
		if _, err := NewJobValuer([]*eeb.Block{blocks[0], &odd}, 1); err == nil {
			t.Errorf("blocks differing in %s share a walk", name)
		}
	}
	if _, err := NewJobValuer(blocks, 1); err != nil {
		t.Fatal(err)
	}
}

// TestValueOuterRejectsNonPositiveInner: dividing the inner sum by zero
// paths used to return NaN silently.
func TestValueOuterRejectsNonPositiveInner(t *testing.T) {
	v, err := NewValuer(smallBlock(t, 10, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -3} {
		if y, err := v.ValueOuter(2, n); err == nil {
			t.Errorf("ValueOuter with %d inner paths returned %v, want an error", n, y)
		}
	}
	if _, err := v.ValueOuter(-1, 5); err == nil {
		t.Error("negative outer index accepted")
	}
}

// jobWalkBook is BenchmarkJobWalk's workload: the 60-contract savings-heavy
// book (3 blocks) at the hot-path benchmark's sample sizes.
func jobWalkBook(b *testing.B) []*eeb.Block {
	return archetypeBlocks(b, policy.ItalianCompanySpecs()[0], hotPathOuter, hotPathInner, nil)
}

// BenchmarkJobWalk measures what walking a job's blocks together buys over
// walking them one after another, on the daemon's default book. per-block is
// the N = 1 walk per block (the shape grid.RunSequential keeps as the
// reference); job is the fused walk grid.Master and the cluster scatter.
// BENCH_pr25.json pins both; TestValuationHotPathBenchSmoke gates them. bases
// is one 25-contract block on the base walk's three decrement bases (best
// estimate, mortality, lapse), one book of three bases; BENCH_pr31.json pins
// it.
func BenchmarkJobWalk(b *testing.B) {
	b.Run("per-block", benchmarkPerBlockWalk)
	b.Run("job", benchmarkJobWalk)
	b.Run("bases", benchmarkBasesWalk)
}

func benchmarkPerBlockWalk(b *testing.B) {
	blocks := jobWalkBook(b)
	valuers := make([]*Valuer, len(blocks))
	for i, blk := range blocks {
		v, err := NewValuer(blk, 1)
		if err != nil {
			b.Fatal(err)
		}
		valuers[i] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range valuers {
			if _, err := v.OuterSlice(0, hotPathOuter); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchmarkJobWalk(b *testing.B) {
	benchmarkWalk(b, jobWalkBook(b))
}

func benchmarkBasesWalk(b *testing.B) {
	benchmarkWalk(b, onBases(jobWalkBook(b)[:1], lifeBases[:3]...))
}

func benchmarkWalk(b *testing.B, blocks []*eeb.Block) {
	job, err := NewJobValuer(blocks, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := job.ValueRange(context.Background(), 0, hotPathOuter, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleJobValuer() {
	market := stochasticMarket(12)
	p := &policy.Portfolio{Name: "example", Contracts: []policy.Contract{
		{Kind: policy.Endowment, Age: 45, Gender: actuarial.Male, Term: 10,
			InsuredSum: 10000, Beta: 0.8, TechnicalRate: 0.02, Count: 50},
		{Kind: policy.Annuity, Age: 62, Gender: actuarial.Female, Term: 12,
			InsuredSum: 1200, Beta: 0.75, TechnicalRate: 0, Count: 40},
	}}
	blocks, _ := eeb.SplitPortfolio(p, fund.TypicalItalianFund(4, market), market,
		eeb.SplitSpec{MaxContractsPerBlock: 1, Outer: 4, Inner: 2})
	for _, group := range eeb.GroupWalks(blocks) {
		job, _ := NewJobValuer(group, 1)
		y1, _ := job.ValueRange(context.Background(), 0, job.Outer(), nil)
		fmt.Println(len(group), "blocks walked together,", len(y1[0]), "outer values each")
	}
	// Output: 2 blocks walked together, 4 outer values each
}
