package finmath

import (
	"testing"

	"disarcloud/internal/benchgate"
)

// BenchmarkRNGUint64 measures the raw generator.
func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkNormFloat64 measures one polar-method Gaussian draw: what the
// portfolio generator, the cloud's noise and the load traces pay. The
// scenario generator does not call it; its cost is BenchmarkNormFill.
func BenchmarkNormFloat64(b *testing.B) {
	r := NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// BenchmarkNormFill measures the ziggurat at the two lengths the generator
// uses it: the 3 shocks of one step of the default market, and a 120-vector
// (no per-call overhead left). ns/op is per fill; ns/draw is reported
// beside it. BENCH_pr23.json pins both; TestNormFillBenchSmoke gates them.
func BenchmarkNormFill(b *testing.B) {
	b.Run("3", benchmarkNormFill3)
	b.Run("120", benchmarkNormFill120)
}

func benchmarkNormFill3(b *testing.B)   { benchmarkNormFill(b, 3) }
func benchmarkNormFill120(b *testing.B) { benchmarkNormFill(b, 120) }

func benchmarkNormFill(b *testing.B, n int) {
	r := NewRNG(1)
	z := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.NormFill(z)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/draw")
}

// TestNormFillBenchSmoke holds the sampler to BENCH_pr23.json: 0 allocs/op
// is hard (any allocation fails), ns/op warns at >20% and fails at >2x (the
// polar method under the same loop reads about 4x).
func TestNormFillBenchSmoke(t *testing.T) {
	benchgate.Run(t, "../../BENCH_pr23.json", []benchgate.Row{
		{Name: "BenchmarkNormFill/3", Bench: benchmarkNormFill3},
		{Name: "BenchmarkNormFill/120", Bench: benchmarkNormFill120},
	})
}

// BenchmarkQuantile measures the 99.5% quantile on a 10k-sample
// distribution (the SCR computation).
func BenchmarkQuantile(b *testing.B) {
	r := NewRNG(2)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Quantile(xs, 0.995)
	}
}

// BenchmarkSolveLeastSquares measures the LSMC-style regression: 200x21
// design (degree-2 tensor Hermite basis over 5 features).
func BenchmarkSolveLeastSquares(b *testing.B) {
	r := NewRNG(3)
	rows := make([][]float64, 200)
	rhs := make([]float64, 200)
	for i := range rows {
		x := make([]float64, 5)
		for k := range x {
			x[k] = r.NormFloat64()
		}
		rows[i] = TensorBasis(x, 2, HermiteBasis)
		rhs[i] = r.NormFloat64()
	}
	a := NewMatrixFrom(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCholesky measures the correlation-matrix factorisation.
func BenchmarkCholesky(b *testing.B) {
	n := 6
	m := Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Set(i, j, 0.3)
			m.Set(j, i, 0.3)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Cholesky(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTensorBasis measures one regression-feature expansion.
func BenchmarkTensorBasis(b *testing.B) {
	x := []float64{0.3, -0.5, 1.1, 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TensorBasis(x, 2, HermiteBasis)
	}
}
