package policy

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/benchgate"
	"disarcloud/internal/finmath"
)

// referencePresentValue is the decomposition Kernel.PresentValue fuses: the
// FlowsInto schedule of the contract, weighted year by year with all three
// decrement columns and discounted.
func referencePresentValue(t *testing.T, c Contract, dec *actuarial.DecrementTable, returns, disc []float64) float64 {
	t.Helper()
	fs, err := c.Flows(returns)
	if err != nil {
		t.Fatal(err)
	}
	pv := 0.0
	for k := 0; k < c.Term; k++ {
		pv += disc[k] * (dec.Death[k]*fs.Death[k] +
			dec.Lapse[k]*fs.Surrender[k] +
			dec.InForce[k]*fs.Survival[k])
	}
	pv += disc[c.Term-1] * dec.InForce[c.Term-1] * fs.Maturity
	return pv
}

func testDecrements(t testing.TB, c Contract) *actuarial.DecrementTable {
	t.Helper()
	eng, err := actuarial.NewEngine(actuarial.ForGender(c.Gender),
		actuarial.DurationLapse{Initial: 0.06, Ultimate: 0.015, Decay: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := eng.Decrements(c.Age, c.Term)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// kernelTolerance bounds |kernel - schedule| relative to the schedule. The
// two are one real number associated two ways (weights folded at compile
// time against weights applied per year, max(a*I + k, 1) against 1 +
// (max(beta*I, i) - i)/(1+i)): the worst case seen is 9 ulp (ten years on the
// kink), 1e-13 is ~450.
const kernelTolerance = 1e-13

// sameValue is bitwise equality that lets any NaN equal any NaN.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// worstKernelGap is the largest relative gap requireKernelMatchesSchedule
// has seen, logged so the tolerance's headroom stays visible.
var worstKernelGap float64

func requireKernelMatchesSchedule(t *testing.T, c Contract, dec *actuarial.DecrementTable, k *Kernel, returns, disc []float64) {
	t.Helper()
	got := k.PresentValue(returns, disc)
	want := referencePresentValue(t, c, dec, returns, disc)
	if want != 0 {
		worstKernelGap = max(worstKernelGap, math.Abs(got-want)/math.Abs(want))
	}
	if !(math.Abs(got-want) <= kernelTolerance*math.Abs(want)) {
		t.Fatalf("kernel %v (%#x), schedule %v (%#x): apart by more than %g relative",
			got, math.Float64bits(got), want, math.Float64bits(want), kernelTolerance)
	}
}

// TestKernelMatchesFlowSchedule holds the compiled kernel to the schedule
// decomposition, within rounding (kernelTolerance), over every contract kind
// and the parameter corners that change which weight a year takes.
func TestKernelMatchesFlowSchedule(t *testing.T) {
	kinds := []Kind{PureEndowment, Endowment, TermInsurance, WholeLife, Annuity}
	penaltyYears := []int{0, 4, 30} // none, inside the term, beyond it
	for _, kind := range kinds {
		for _, py := range penaltyYears {
			for _, tech := range []float64{0, 0.02} {
				for _, term := range []int{1, 10} {
					c := Contract{
						Kind: kind, Age: 47, Gender: actuarial.Female, Term: term,
						InsuredSum: 12500, Beta: 0.83, TechnicalRate: tech, Count: 37,
						Penalty: 0.07, PenaltyYears: py,
					}
					t.Run(fmt.Sprintf("%s/penalty%d/tech%v/term%d", kind, py, tech, term), func(t *testing.T) {
						dec := testDecrements(t, c)
						k, err := c.Compile(dec)
						if err != nil {
							t.Fatal(err)
						}
						rng := finmath.NewRNG(uint64(100*int(kind) + py + term))
						// Longer than the term, as the walk's shared buffers are.
						returns, disc := make([]float64, term+3), make([]float64, term+3)
						for trial := 0; trial < 50; trial++ {
							d := 1.0
							for i := range returns {
								// Both arms of the guarantee, and the kink beta*I = i.
								returns[i] = 0.03 + 0.08*rng.NormFloat64()
								if trial%7 == 0 && i%3 == 0 {
									returns[i] = tech / c.Beta
								}
								d *= math.Exp(-0.02 - 0.01*rng.NormFloat64())
								disc[i] = d
							}
							requireKernelMatchesSchedule(t, c, dec, &k, returns, disc)
						}

						// Returns far below the guarantee: the readjustment factor
						// stays exactly 1 in both forms, so the kernel is the weights
						// discounted and nothing else.
						flat := 0.0
						for i := range returns {
							returns[i] = -0.5 - float64(i)
						}
						for i, w := range k.w {
							flat += disc[i] * w
						}
						if got := k.PresentValue(returns, disc); got != flat {
							t.Fatalf("below the guarantee: kernel %v, discounted weights %v", got, flat)
						}
						requireKernelMatchesSchedule(t, c, dec, &k, returns, disc)

						// Every year on the kink.
						for i := range returns {
							returns[i] = tech / c.Beta
						}
						requireKernelMatchesSchedule(t, c, dec, &k, returns, disc)

						// Non-finite returns propagate as they do through the
						// schedule: NaN and +Inf poison the value, -Inf is a year
						// below the guarantee.
						for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
							for i := range returns {
								returns[i] = 0.03
							}
							returns[0] = bad
							got := k.PresentValue(returns, disc)
							want := referencePresentValue(t, c, dec, returns, disc)
							if math.IsNaN(want) || math.IsInf(want, 0) {
								if !sameValue(got, want) {
									t.Fatalf("return %v: kernel %v, schedule %v", bad, got, want)
								}
							} else {
								requireKernelMatchesSchedule(t, c, dec, &k, returns, disc)
							}
						}
					})
				}
			}
		}
	}
	t.Logf("worst |kernel - schedule| / |schedule| = %.3g (%.1f ulp)", worstKernelGap, worstKernelGap/0x1p-52)
}

func TestCompileRejectsShortTable(t *testing.T) {
	c := validContract()
	dec := testDecrements(t, c)
	short := &actuarial.DecrementTable{
		InForce: dec.InForce[:c.Term-1], Death: dec.Death[:c.Term-1], Lapse: dec.Lapse[:c.Term-1],
	}
	if _, err := c.Compile(short); err == nil {
		t.Fatal("decrement table shorter than the term accepted")
	}
	if _, err := c.Compile(nil); err == nil {
		t.Fatal("nil decrement table accepted")
	}
	c.Kind = 0
	if _, err := c.Compile(dec); err == nil {
		t.Fatal("invalid contract compiled")
	}
}

// TestInlineMaxMatchesMathMax holds the kernel's yearly factor, the built-in
// max(a*I + k, 1), to math.Max on the same operands bit for bit — signed
// zeros, NaN and infinities included — and to Eq. (3) as ReadjustmentRate
// writes it, 1 + (math.Max(beta*I, i) - i)/(1+i), within 4 ulp of a value in
// [1, 2): the identity PresentValue rests on.
func TestInlineMaxMatchesMathMax(t *testing.T) {
	check := func(beta, tech, ret float64) bool {
		a, k := beta/(1+tech), 1/(1+tech)
		got := max(a*ret+k, 1)
		if !sameValue(got, math.Max(a*ret+k, 1)) {
			return false
		}
		want := 1 + ReadjustmentRate(beta, tech, ret)
		if math.IsNaN(want) || math.IsInf(want, 0) {
			return sameValue(got, want)
		}
		return math.Abs(got-want) <= 4e-16*want
	}
	negZero := math.Copysign(0, -1)
	for _, tech := range []float64{0, negZero, 0.02} {
		for _, ret := range []float64{0, negZero, 0.025, -0.025, tech / 0.8, math.MaxFloat64, -math.MaxFloat64,
			math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
			if !check(0.8, tech, ret) {
				t.Errorf("tech=%v ret=%v: max(a*I+k, 1) and Eq. (3) differ", tech, ret)
			}
		}
	}
	if err := quick.Check(func(betaRaw, techRaw uint16, ret float64) bool {
		if math.IsNaN(ret) || math.IsInf(ret, 0) {
			return true
		}
		beta := 0.01 + 0.98*float64(betaRaw)/65535
		tech := 0.04 * float64(techRaw) / 65535
		// quick draws returns across the whole float64 range; fold half of
		// them to the scale where the guarantee actually binds or not.
		if techRaw%2 == 0 {
			ret = math.Mod(ret, 0.1)
		}
		return check(beta, tech, ret)
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// testBases are decrement bases a book's contracts are compiled on: the best
// estimate, then the Solvency II life stresses (mortality +15%, lapse +50%,
// longevity -20%, lapse -50%).
var testBases = []struct{ mortality, lapse float64 }{{1, 1}, {1.15, 1}, {1, 1.5}, {0.8, 1}, {1, 0.5}}

// basisKernels compiles contracts on basis k of testBases.
func basisKernels(t testing.TB, contracts []Contract, k int) []Kernel {
	t.Helper()
	out := make([]Kernel, len(contracts))
	for i, c := range contracts {
		mort := actuarial.ScaledMortality{Base: actuarial.ForGender(c.Gender), Factor: testBases[k].mortality}
		lapse := actuarial.LapseStress{Base: actuarial.DurationLapse{Initial: 0.06, Ultimate: 0.015, Decay: 0.75}, Factor: testBases[k].lapse}
		eng, err := actuarial.NewEngine(mort, lapse)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := eng.Decrements(c.Age, c.Term)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = c.Compile(dec); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// bookTestContracts is a 25-contract block of the annuity-rich book: every
// kind, terms 10..40.
func bookTestContracts(t testing.TB) []Contract {
	t.Helper()
	spec := ItalianCompanySpecs()[2]
	spec.NumContracts = 25
	p, err := Generate(finmath.NewRNG(5), spec)
	if err != nil {
		t.Fatal(err)
	}
	return p.Contracts
}

// TestBookBasesMatchTheirKernels holds a book of 1..5 bases to each basis's
// kernels summed in contract order, bit for bit: one shared chain per
// contract changes no operation a basis sees. The contracts' terms differ,
// the returns straddle the guarantee, and non-finite returns poison (NaN,
// +Inf) or floor (-Inf) every basis as they do one kernel.
func TestBookBasesMatchTheirKernels(t *testing.T) {
	contracts := bookTestContracts(t)
	terms := map[int]bool{}
	for _, c := range contracts {
		terms[c.Term] = true
	}
	if len(terms) < 2 {
		t.Fatal("every contract has the same term")
	}
	bases := make([][]Kernel, len(testBases))
	for k := range bases {
		bases[k] = basisKernels(t, contracts, k)
	}
	rng := finmath.NewRNG(31)
	returns, disc := make([]float64, 43), make([]float64, 43) // longer than any term
	for width := 1; width <= len(bases); width++ {
		book := NewBook(bases[0])
		for k := 1; k < width; k++ {
			if !book.Add(bases[k]) {
				t.Fatalf("basis %d of the same contracts refused", k)
			}
		}
		if book.Width() != width {
			t.Fatalf("book of %d bases reports width %d", width, book.Width())
		}
		for trial := 0; trial < 40; trial++ {
			d := 1.0
			for i := range returns {
				returns[i] = 0.02 + 0.06*rng.NormFloat64()
				d *= math.Exp(-0.02 - 0.01*rng.NormFloat64())
				disc[i] = d
			}
			if bad := trial % 8; bad < 3 {
				returns[1+3*trial%20] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[bad]
			}
			got := make([]float64, width)
			for k := range got {
				got[k] = float64(k) // the book adds to what pv holds
			}
			book.AddPresentValues(returns, disc, got)
			for k := range got {
				want := 0.0
				for c := range bases[k] {
					want += bases[k][c].PresentValue(returns, disc)
				}
				if want += float64(k); !sameValue(got[k], want) {
					t.Fatalf("width %d trial %d basis %d: book %v (%#x), kernels %v (%#x)",
						width, trial, k, got[k], math.Float64bits(got[k]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestBookAddRequiresTheSameChains: a basis joins a book only when every
// contract keeps its a, its k and its term; a change to one contract's
// participation rate (a alone), technical rate (a and k) or term keeps it
// out, and the book as it was.
func TestBookAddRequiresTheSameChains(t *testing.T) {
	contracts := bookTestContracts(t)
	for name, mutate := range map[string]func(*Contract){
		"beta":           func(c *Contract) { c.Beta *= 0.9 },
		"technical rate": func(c *Contract) { c.TechnicalRate += 0.005 },
		"term":           func(c *Contract) { c.Term-- },
	} {
		odd := append([]Contract(nil), contracts...)
		mutate(&odd[17])
		book := NewBook(basisKernels(t, contracts, 0))
		if book.Add(basisKernels(t, odd, 1)) || book.Width() != 1 {
			t.Errorf("a contract with another %s shares its chain (width %d)", name, book.Width())
		}
	}
	book := NewBook(basisKernels(t, contracts, 0))
	if book.Add(basisKernels(t, contracts[:24], 1)) || book.Width() != 1 {
		t.Error("a basis with a contract missing joined the book")
	}
	if !book.Add(basisKernels(t, contracts, 0)) || book.Width() != 2 {
		t.Error("the same kernels again refused")
	}
}

// BenchmarkBookBases measures what sharing the chain buys on the base walk's
// three bases (best estimate, mortality, lapse) of one 25-contract block
// along one 40-year path: three one-basis books (separate) against one book
// of three bases (shared).
func BenchmarkBookBases(b *testing.B) {
	contracts := bookTestContracts(b)
	kernels := [][]Kernel{basisKernels(b, contracts, 0), basisKernels(b, contracts, 1), basisKernels(b, contracts, 2)}
	rng := finmath.NewRNG(9)
	returns, disc := make([]float64, 40), make([]float64, 40)
	d := 1.0
	for i := range returns {
		returns[i] = 0.03 + 0.04*rng.NormFloat64()
		d *= math.Exp(-0.02)
		disc[i] = d
	}
	shared := NewBook(kernels[0])
	separate := make([]Book, len(kernels))
	for k := range kernels {
		separate[k] = NewBook(kernels[k])
		if k > 0 && !shared.Add(kernels[k]) {
			b.Fatal("bases refused")
		}
	}
	pv := make([]float64, len(kernels))
	b.Run("separate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := range separate {
				separate[k].AddPresentValues(returns, disc, pv[k:])
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			shared.AddPresentValues(returns, disc, pv)
		}
	})
	kernelSink = pv[0]
}

// BenchmarkKernelPresentValue measures the per-(contract, path) kernel alone:
// one 25-contract block of the annuity-rich book (terms 10..40, every kind)
// valued along one 40-year path. It reports ns per contract-year, the unit
// the walk pays per inner path; BENCH_pr22.json pins it and
// TestKernelBenchSmoke gates it.
func BenchmarkKernelPresentValue(b *testing.B) {
	spec := ItalianCompanySpecs()[2]
	spec.NumContracts = 25
	p, err := Generate(finmath.NewRNG(5), spec)
	if err != nil {
		b.Fatal(err)
	}
	book := make([]Kernel, len(p.Contracts))
	contractYears := 0
	for i, c := range p.Contracts {
		if book[i], err = c.Compile(testDecrements(b, c)); err != nil {
			b.Fatal(err)
		}
		contractYears += c.Term
	}
	rng := finmath.NewRNG(9)
	returns, disc := make([]float64, spec.MaxTerm), make([]float64, spec.MaxTerm)
	d := 1.0
	for i := range returns {
		returns[i] = 0.03 + 0.04*rng.NormFloat64() // both arms of the guarantee
		d *= math.Exp(-0.02)
		disc[i] = d
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0.0
	for i := 0; i < b.N; i++ {
		for c := range book {
			total += book[c].PresentValue(returns, disc)
		}
	}
	kernelSink = total
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(contractYears), "ns/contract-year")
}

var kernelSink float64

// TestKernelBenchSmoke holds the kernel to BENCH_pr22.json: 0 allocs/op
// exactly; ns/op warns at >20% and fails at >2x. A division or a per-kind
// branch back in the per-year loop reads about 1.3x on this row, so the gate
// is for gross regressions; the traced bench run carries the trend.
func TestKernelBenchSmoke(t *testing.T) {
	benchgate.Run(t, "../../BENCH_pr22.json", []benchgate.Row{
		{Name: "BenchmarkKernelPresentValue", Bench: BenchmarkKernelPresentValue},
	})
}
