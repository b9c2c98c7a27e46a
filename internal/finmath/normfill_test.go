package finmath

import (
	"math"
	"math/bits"
	"testing"
)

// TestZigguratTables validates zigR and zigV through the tables built from
// them: the edges fall strictly to 0, the densities are the density, every
// region has area zigV, and the recurrence that builds the edges closes at
// the mode. A mistyped constant or an off-by-one in the recurrence fails it.
func TestZigguratTables(t *testing.T) {
	if zigX[1] != zigR || zigX[zigStrips] != 0 {
		t.Fatalf("x[1] = %v, x[%d] = %v; want %v and 0", zigX[1], zigStrips, zigX[zigStrips], zigR)
	}
	for i := 0; i < zigStrips; i++ {
		if !(zigX[i+1] < zigX[i]) {
			t.Fatalf("x[%d] = %v is not below x[%d] = %v", i+1, zigX[i+1], i, zigX[i])
		}
	}
	for i, x := range zigX {
		if zigF[i] != math.Exp(-0.5*x*x) {
			t.Fatalf("f[%d] = %v, want exp(-x*x/2) = %v", i, zigF[i], math.Exp(-0.5*x*x))
		}
	}
	// Strip 0: the rectangle under f(zigR) plus the tail integral.
	base := zigR*zigF[1] + math.Sqrt(math.Pi/2)*math.Erfc(zigR/math.Sqrt2)
	if math.Abs(base-zigV) > 1e-12 {
		t.Errorf("strip 0 has area %v, want %v", base, zigV)
	}
	if got := zigX[0] * zigF[1]; math.Abs(got-zigV) > 1e-12 {
		t.Errorf("x[0]*f(r) = %v, want %v", got, zigV)
	}
	// Strips 1..126 are zigV by construction. The top strip is where the
	// recurrence must arrive at f = 1 by itself: zigR is published to 13
	// digits, which leaves 1.2e-11 there (an error of 1e-6 in zigR leaves
	// 4e-8 there and 3e-8 in strip 0; one of 1e-6 relative in zigV, 2e-6).
	for i := 1; i < zigStrips; i++ {
		tol := 1e-12
		if i == zigStrips-1 {
			tol = 2e-11
		}
		if area := zigX[i] * (zigF[i+1] - zigF[i]); math.Abs(area-zigV) > tol {
			t.Errorf("strip %d has area %v, want %v within %v", i, area, zigV, tol)
		}
	}
}

// TestNormFillBitLayout replays every draw from a copy of the generator.
// When the first Uint64 decides the draw, the value must be exactly
// (-1)^bit7 * (top 53 bits) * 2^-53 * x[bits 0-6] with nothing more
// consumed; in strip 0 beyond zigR it must come from the tail; in a wedge it
// must be that same value iff one further Float64 falls under the density. A
// sampler that takes the sign or the strip from bits of the magnitude, or
// reads the tables one strip off, fails here on the first few draws.
func TestNormFillBitLayout(t *testing.T) {
	r := NewRNG(17)
	var z [1]float64
	fast, tail, wedge, rejected := 0, 0, 0, 0
	for n := 0; n < 200000; n++ {
		replay := *r
		r.NormFill(z[:])
		b := replay.Uint64()
		i := b & 127
		x := float64(b>>11) / (1 << 53) * zigX[i]
		if b>>7&1 == 1 {
			x = -x
		}
		switch {
		case math.Abs(x) < zigX[i+1]:
			fast++
		case i == 0:
			tail++
			if math.Abs(z[0]) <= zigR || math.Signbit(z[0]) != math.Signbit(x) || *r == replay {
				t.Fatalf("draw %d: %v from %#x, want a tail draw of that sign", n, z[0], b)
			}
			continue
		case zigF[i]+replay.Float64()*(zigF[i+1]-zigF[i]) < math.Exp(-0.5*x*x):
			wedge++
		default:
			rejected++
			continue // the draw started over with the next Uint64
		}
		if z[0] != x || *r != replay {
			t.Fatalf("draw %d: got %v from %#x, want %v and the stream where the replay left it", n, z[0], b, x)
		}
	}
	// The mean of x[i+1]/x[i] is 0.9724, and 1 - 128*zigV/sqrt(pi/2) = 1.22%
	// of all candidates lie above the curve; tables one strip off move both.
	t.Logf("fast %d, tail %d, wedge accepted %d, rejected %d", fast, tail, wedge, rejected)
	if fast < 194000 || fast > 195000 || rejected < 2200 || rejected > 2700 || tail == 0 || wedge == 0 {
		t.Errorf("fast %d and rejected %d of 200000, want about 194490 and 2440, and every arm taken", fast, rejected)
	}
}

// normSample accumulates what the distribution tests need from one stream
// without holding it: raw moments, the mass beyond zigR, the negative share,
// and counts on a grid of 1024 cells of width 1/64 over [-8, 8) for the
// Kolmogorov-Smirnov statistics.
type normSample struct {
	n              int
	m1, m2, m3, m4 float64
	tail, neg      int
	cells          [1024]int
}

func (s *normSample) add(z float64) {
	z2 := z * z
	s.n++
	s.m1 += z
	s.m2 += z2
	s.m3 += z2 * z
	s.m4 += z2 * z2
	if math.Abs(z) > zigR {
		s.tail++
	}
	if z < 0 {
		s.neg++
	}
	if c := int(math.Floor((z + 8) * 64)); c >= 0 && c < len(s.cells) {
		s.cells[c]++
	}
}

// ecdf returns the empirical CDF at the right edge of every cell, and the
// edges. A Kolmogorov-Smirnov statistic taken over these edges never exceeds
// the exact one, so the exact test's critical value keeps its level; a
// distortion wider than a cell (1/64) keeps its power.
func (s *normSample) ecdf() (f, edges []float64) {
	cum := 0
	for c, k := range s.cells {
		cum += k
		f = append(f, float64(cum)/float64(s.n))
		edges = append(edges, float64(c+1)/64-8)
	}
	return f, edges
}

func supDistance(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// TestNormFillDistribution holds 2e7 ziggurat draws to the standard normal
// law. Every bound is 4 standard errors of the statistic under N(0,1)
// (z^k has variance 1, 2, 15, 96 for k = 1..4) or, for the two
// Kolmogorov-Smirnov statistics, the alpha = 0.001 critical value
// 1.9495/sqrt(n). The second sample is the polar method's, the reference
// the generator drew from until PR 23.
func TestNormFillDistribution(t *testing.T) {
	const n = 20_000_000
	var zig, polar normSample
	r := NewRNG(2023)
	buf := make([]float64, 1000)
	for i := 0; i < n/len(buf); i++ {
		r.NormFill(buf)
		for _, z := range buf {
			zig.add(z)
		}
	}
	ref := NewRNG(2024)
	for i := 0; i < n; i++ {
		polar.add(ref.NormFloat64())
	}

	N := float64(n)
	for _, m := range []struct {
		name            string
		got, want, var1 float64
	}{
		{"mean", zig.m1 / N, 0, 1},
		{"second moment", zig.m2 / N, 1, 2},
		{"third moment", zig.m3 / N, 0, 15},
		{"fourth moment", zig.m4 / N, 3, 96},
	} {
		se := math.Sqrt(m.var1 / N)
		t.Logf("%s %.5f (want %v, %+.2f standard errors)", m.name, m.got, m.want, (m.got-m.want)/se)
		if math.Abs(m.got-m.want) > 4*se {
			t.Errorf("%s = %v, want %v within %v", m.name, m.got, m.want, 4*se)
		}
	}
	binomial := func(name string, count int, p float64) {
		got, se := float64(count)/N, math.Sqrt(p*(1-p)/N)
		t.Logf("%s %.4e (want %.4e, %+.2f standard errors)", name, got, p, (got-p)/se)
		if math.Abs(got-p) > 4*se {
			t.Errorf("%s = %v, want %v within %v", name, got, p, 4*se)
		}
	}
	binomial("mass beyond r", zig.tail, math.Erfc(zigR/math.Sqrt2))
	binomial("negative share", zig.neg, 0.5)

	const ks001 = 1.9495 // sqrt(-ln(0.001/2)/2)
	fZig, edges := zig.ecdf()
	phi := make([]float64, len(edges))
	for i, e := range edges {
		phi[i] = NormCDF(e)
	}
	d := supDistance(fZig, phi)
	t.Logf("KS against NormCDF: %.3e (critical %.3e)", d, ks001/math.Sqrt(N))
	if d > ks001/math.Sqrt(N) {
		t.Errorf("KS distance from the normal CDF %v, over %v", d, ks001/math.Sqrt(N))
	}
	fPolar, _ := polar.ecdf()
	d2 := supDistance(fZig, fPolar)
	t.Logf("two-sample KS against polar NormFloat64: %.3e (critical %.3e)", d2, ks001*math.Sqrt(2/N))
	if d2 > ks001*math.Sqrt(2/N) {
		t.Errorf("two-sample KS distance from the polar sampler %v, over %v", d2, ks001*math.Sqrt(2/N))
	}
}

// TestNormFillStreamContract: the fill is a pure function of the generator
// state, with nothing carried between calls.
func TestNormFillStreamContract(t *testing.T) {
	const n = 200 // long enough to cross several wedge draws
	whole := make([]float64, n)
	NewRNG(99).NormFill(whole)

	// k = 0 is also "same seed, same fill".
	for k := 0; k <= n; k++ {
		split := make([]float64, n)
		r := NewRNG(99)
		r.NormFill(split[:k])
		r.NormFill(split[k:])
		for i := range whole {
			if math.Float64bits(split[i]) != math.Float64bits(whole[i]) {
				t.Fatalf("fill split at %d differs from the whole fill at draw %d: %v vs %v", k, i, split[i], whole[i])
			}
		}
	}

	again := make([]float64, n)
	r := NewRNG(1)
	r.NormFill(again[:77]) // anywhere mid-stream
	r.Reseed(99)
	r.NormFill(again)
	for i := range whole {
		if whole[i] != again[i] {
			t.Fatalf("Reseed mid-stream, draw %d: %v, fresh generator %v", i, again[i], whole[i])
		}
	}
}

// TestBitsMatchHandRolled keeps the expressions rng.go used before it called
// math/bits and holds the library to them on edge operands: Uint64 and Intn
// streams are fixtures.
func TestBitsMatchHandRolled(t *testing.T) {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
	mul64 := func(a, b uint64) (hi, lo uint64) {
		const mask = 1<<32 - 1
		aLo, aHi := a&mask, a>>32
		bLo, bHi := b&mask, b>>32
		t := aHi*bLo + (aLo*bLo)>>32
		lo = a * b
		hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
		return hi, lo
	}
	edge := []uint64{0, 1, 2, 3, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 1,
		0x9e3779b97f4a7c15, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	for _, a := range edge {
		for _, k := range []uint{7, 45} {
			if got, want := bits.RotateLeft64(a, int(k)), rotl(a, k); got != want {
				t.Errorf("RotateLeft64(%#x, %d) = %#x, hand-rolled %#x", a, k, got, want)
			}
		}
		for _, b := range edge {
			hi, lo := bits.Mul64(a, b)
			if wantHi, wantLo := mul64(a, b); hi != wantHi || lo != wantLo {
				t.Errorf("Mul64(%#x, %#x) = (%#x, %#x), hand-rolled (%#x, %#x)", a, b, hi, lo, wantHi, wantLo)
			}
		}
	}
}
