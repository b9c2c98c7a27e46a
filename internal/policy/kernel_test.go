package policy

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"disarcloud/internal/actuarial"
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

func testDecrements(t *testing.T, c Contract) *actuarial.DecrementTable {
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

// TestKernelMatchesFlowSchedule holds the one-pass kernel to the schedule
// decomposition bit for bit, over every contract kind and the parameter
// corners that change which arm or which table entry a year takes.
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
								// Both arms of the guarantee, and an exact tie.
								returns[i] = 0.03 + 0.08*rng.NormFloat64()
								if trial%7 == 0 && i%3 == 0 {
									returns[i] = tech / c.Beta
								}
								d *= math.Exp(-0.02 - 0.01*rng.NormFloat64())
								disc[i] = d
							}
							got := k.PresentValue(returns, disc)
							want := referencePresentValue(t, c, dec, returns, disc)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("trial %d: kernel %v (%#x) != schedule %v (%#x)",
									trial, got, math.Float64bits(got), want, math.Float64bits(want))
							}
						}
					})
				}
			}
		}
	}
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

// TestInlineMaxMatchesMathMax holds the kernel's inline-max form of Eq.
// (3)/(5) to the math.Max form of ReadjustmentRate, bit for bit, on finite
// inputs — signed zeros on either side of the comparison included.
func TestInlineMaxMatchesMathMax(t *testing.T) {
	same := func(c, beta, tech, ret float64) bool {
		got := revalued(c, beta, tech, 1+tech, ret)
		want := c * (1 + ReadjustmentRate(beta, tech, ret))
		return math.Float64bits(got) == math.Float64bits(want)
	}
	negZero := math.Copysign(0, -1)
	for _, tech := range []float64{0, negZero, 0.02} {
		for _, ret := range []float64{0, negZero, 0.025, -0.025, tech / 0.8, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64} {
			for _, c := range []float64{1, 12500, 1e-300} {
				if !same(c, 0.8, tech, ret) {
					t.Errorf("c=%v tech=%v ret=%v: inline and math.Max forms differ", c, tech, ret)
				}
			}
		}
	}
	if err := quick.Check(func(betaRaw, techRaw uint16, ret, c float64) bool {
		if math.IsNaN(ret) || math.IsInf(ret, 0) || math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		beta := 0.01 + 0.98*float64(betaRaw)/65535
		tech := 0.04 * float64(techRaw) / 65535
		// quick draws returns across the whole float64 range; fold half of
		// them to the scale where the guarantee actually binds or not.
		if techRaw%2 == 0 {
			ret = math.Mod(ret, 0.1)
		}
		return same(c, beta, tech, ret)
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
