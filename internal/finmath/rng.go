// Package finmath provides the deterministic numerical substrate used by the
// rest of the repository: a splittable random number generator, descriptive
// statistics and empirical quantiles, dense linear algebra (QR least squares,
// Cholesky factorisation), orthonormal polynomial bases, and the probability
// distributions needed by the stochastic risk-driver models.
//
// Everything in this package is deterministic given an explicit seed; no
// global mutable state is used so that concurrent simulations cannot
// interfere with one another.
package finmath

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** seeded through SplitMix64. It is NOT safe for concurrent use;
// derive independent streams with Split instead of sharing one instance.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which
// guarantees a well-mixed internal state even for small or similar seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator in place to the state NewRNG(seed) would
// produce, without allocating. Batched path generation reuses one RNG value
// across the per-path streams of a panel fill.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro256** must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives a new generator whose stream is statistically independent of
// the receiver's. It advances the receiver by one draw.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd3833e804f4c574b)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("finmath: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded rejection sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// NormFloat64 returns a standard normal draw using the polar Marsaglia
// method, which avoids trigonometric calls and has no branch-dependent
// stream consumption beyond rejection. Its bit stream is a fixture: the
// generated portfolios, the cloud's noise and the load traces are recorded
// against it. Hot loops draw through NormFill, a different stream.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(mu + sigma*Z) with Z standard normal.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// The ziggurat of Marsaglia and Tsang (2000) covers the half-density
// exp(-x*x/2), x >= 0, with zigStrips regions of equal area zigV: strip 0 is
// the rectangle [0, zigR] x [0, f(zigR)] plus the tail beyond zigR, strip
// i >= 1 the rectangle [0, x[i]] x [f(x[i]), f(x[i+1])]. zigR and zigV are the
// published pair for 128 strips; everything else follows from them.
const (
	zigStrips = 128
	zigR      = 3.442619855899
	zigV      = 9.91256303526217e-3
)

// zigX holds the strips' right edges, decreasing from zigX[1] = zigR to
// zigX[zigStrips] = 0, and zigF the density at them. zigX[0] = zigV/f(zigR)
// is the width strip 0 would have as a plain rectangle of area zigV, so a
// uniform point on [0, zigX[0]) falls left of zigR exactly as often as a
// point of strip 0 falls in its rectangle rather than in the tail.
var zigX, zigF = zigTables()

func zigTables() (x, f [zigStrips + 1]float64) {
	x[0], x[1] = zigV/math.Exp(-0.5*zigR*zigR), zigR
	for i := 1; i < zigStrips-1; i++ {
		x[i+1] = math.Sqrt(-2 * math.Log(zigV/x[i]+math.Exp(-0.5*x[i]*x[i])))
	}
	// The same step from x[zigStrips-1] lands on 0 to within the digits of
	// zigR (TestZigguratTables holds it there); the top edge is exact.
	x[zigStrips] = 0
	for i := range f {
		f[i] = math.Exp(-0.5 * x[i] * x[i])
	}
	return x, f
}

// NormFill fills z with independent standard normal draws from the
// ziggurat. One Uint64 decides a draw in 97.2% of cases, and its bits are
// used once each: bits 0-6 pick the strip, bit 7 the sign, the top 53 the
// position along the strip. Only the wedge under the curve and the tail
// draw again (Float64), and 1.2% of candidates are rejected there. The
// stream is a pure function of the state on entry: there is no spare
// variate to carry, filling z[:k] and then z[k:] is filling z, and Reseed
// needs nothing cleared. The scenario generator draws every shock here.
func (r *RNG) NormFill(z []float64) {
	for n := range z {
		var x float64
		var b uint64
		for {
			b = r.Uint64()
			i := b & (zigStrips - 1)
			x = float64(b>>11) * (1.0 / (1 << 53)) * zigX[i]
			if x < zigX[i+1] {
				break // inside the part of the strip that lies under the curve
			}
			if i == 0 {
				x = r.normTail()
				break
			}
			// The wedge: uniform height within the strip against the density.
			if zigF[i]+r.Float64()*(zigF[i+1]-zigF[i]) < math.Exp(-0.5*x*x) {
				break
			}
		}
		z[n] = math.Float64frombits(math.Float64bits(x) | (b>>7&1)<<63)
	}
}

// normTail draws from the normal tail beyond zigR (Marsaglia 1964): an
// exponential proposal of rate zigR, accepted against the density ratio.
func (r *RNG) normTail() float64 {
	for {
		d := -math.Log(1-r.Float64()) / zigR
		if -2*math.Log(1-r.Float64()) > d*d {
			return zigR + d
		}
	}
}

// Exponential returns an exponentially distributed draw with the given rate.
// It panics if rate <= 0.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("finmath: Exponential with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
