package actuarial

import (
	"math"
	"testing"
)

func TestLongevityStressReducesMortality(t *testing.T) {
	base := ItalianMales2016()
	stressed := LongevityStress(base)
	for age := 20; age <= 100; age += 5 {
		got := stressed.AnnualDeathProb(age)
		want := 0.8 * base.AnnualDeathProb(age)
		if math.Abs(got-want) > 1e-15 {
			t.Fatalf("age %d: %v, want %v", age, got, want)
		}
	}
}

func TestLongevityStressRaisesLifeExpectancy(t *testing.T) {
	base := ItalianMales2016()
	e := CurtateExpectation(base, 60, 120)
	eStress := CurtateExpectation(LongevityStress(base), 60, 120)
	if eStress <= e {
		t.Fatalf("longevity stress lowered e_60: %v <= %v", eStress, e)
	}
	// A 20% mortality cut should add a couple of years at 60.
	if eStress-e < 1 || eStress-e > 6 {
		t.Fatalf("implausible longevity effect: +%v years", eStress-e)
	}
}

func TestMortalityStressClampsAtOne(t *testing.T) {
	table, err := NewLifeTable([]float64{0.95})
	if err != nil {
		t.Fatal(err)
	}
	got := MortalityStress(table).AnnualDeathProb(0)
	if got > 1 {
		t.Fatalf("stressed probability %v exceeds 1", got)
	}
}

// TestMortalityStressIsScaledMortality: a campaign stamps its life shocks as
// eeb.Biometric factors, which the valuer applies as ScaledMortality over
// the standard tables. That must be the regulatory stress itself, bit for
// bit at every age of both tables.
func TestMortalityStressIsScaledMortality(t *testing.T) {
	for _, g := range []Gender{Male, Female} {
		base := ForGender(g)
		stresses := []struct {
			stressed MortalityModel
			factor   float64
		}{{MortalityStress(base), 1.15}, {LongevityStress(base), 0.80}}
		for _, s := range stresses {
			scaled := ScaledMortality{Base: base, Factor: s.factor}
			for age := 0; age <= 120; age++ {
				if got, want := scaled.AnnualDeathProb(age), s.stressed.AnnualDeathProb(age); got != want {
					t.Fatalf("%s age %d, factor %v: scaled %v, stress %v", g, age, s.factor, got, want)
				}
			}
		}
	}
}

func TestScaledMortalityValidate(t *testing.T) {
	if err := (ScaledMortality{Base: nil, Factor: 1}).Validate(); err == nil {
		t.Fatal("nil base accepted")
	}
	if err := (ScaledMortality{Base: ItalianMales2016(), Factor: -1}).Validate(); err == nil {
		t.Fatal("negative factor accepted")
	}
	if err := (ScaledMortality{Base: ItalianMales2016(), Factor: 0.8}).Validate(); err != nil {
		t.Fatal(err)
	}
	// A NaN factor made AnnualDeathProb NaN, +Inf made it 1 at every age.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (ScaledMortality{Base: ItalianMales2016(), Factor: f}).Validate(); err == nil {
			t.Errorf("factor %v accepted", f)
		}
	}
	if err := (ScaledMortality{Base: ItalianMales2016(), Factor: 0}).Validate(); err != nil {
		t.Errorf("zero factor refused: %v", err)
	}
}

func TestLongevityStressRaisesEndowmentLiability(t *testing.T) {
	// A pure survival benefit gets MORE expensive under longevity stress:
	// the in-force probability at term rises.
	eng, _ := NewEngine(ItalianMales2016(), NoLapse{})
	engStress, _ := NewEngine(LongevityStress(ItalianMales2016()), NoLapse{})
	base, _ := eng.Decrements(55, 20)
	stress, _ := engStress.Decrements(55, 20)
	if stress.InForce[19] <= base.InForce[19] {
		t.Fatalf("longevity stress did not raise survival: %v <= %v",
			stress.InForce[19], base.InForce[19])
	}
}

func TestLapseStressScalesAndClamps(t *testing.T) {
	base := ConstantLapse{Rate: 0.04}
	up := LapseStress{Base: base, Factor: 1.5}
	down := LapseStress{Base: base, Factor: 0.5}
	if got := up.AnnualLapseProb(3); math.Abs(got-0.06) > 1e-15 {
		t.Fatalf("up stress = %v", got)
	}
	if got := down.AnnualLapseProb(3); math.Abs(got-0.02) > 1e-15 {
		t.Fatalf("down stress = %v", got)
	}
	huge := LapseStress{Base: ConstantLapse{Rate: 0.9}, Factor: 2}
	if got := huge.AnnualLapseProb(0); got > 1 {
		t.Fatalf("stressed lapse %v exceeds 1", got)
	}
}
