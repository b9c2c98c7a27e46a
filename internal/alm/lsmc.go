package alm

import (
	"errors"
	"fmt"

	"disarcloud/internal/finmath"
)

// LSMCSpec configures the Least-Squares Monte Carlo acceleration: the plain
// nested Monte Carlo determination of Y1 is replaced by a truncated series
// expansion in orthonormal (Hermite) polynomials whose coefficients are
// calibrated on a smaller n'_P x n'_Q nested sample (Section II, citing
// Bauer-Reuss-Singer).
type LSMCSpec struct {
	CalibOuter int // n'_P << n_P calibration outer paths
	CalibInner int // n'_Q calibration inner paths per outer
	Degree     int // total polynomial degree of the expansion
	// Ridge is the L2 regularisation strength of the regression; zero
	// selects a small default that keeps the nearly collinear fund-return
	// feature from making the design rank deficient.
	Ridge float64
}

// ridge returns the effective regularisation strength.
func (s LSMCSpec) ridge() float64 {
	if s.Ridge > 0 {
		return s.Ridge
	}
	return 1e-6
}

// Validate reports whether the spec is usable for the given block feature
// dimensionality.
func (s LSMCSpec) Validate(numFeatures int) error {
	if s.CalibOuter <= 0 || s.CalibInner <= 0 {
		return errors.New("alm: LSMC calibration sample sizes must be positive")
	}
	if s.Degree <= 0 {
		return errors.New("alm: LSMC degree must be positive")
	}
	if size := finmath.TensorBasisSize(numFeatures, s.Degree); s.CalibOuter < 2*size {
		return fmt.Errorf("alm: %d calibration paths for %d basis functions; need >= %d",
			s.CalibOuter, size, 2*size)
	}
	return nil
}

// Proxy is a calibrated LSMC polynomial approximation of the map from
// F1-measurable state to the time-1 liability value Y1.
type Proxy struct {
	coeffs []float64
	mean   []float64 // feature standardisation
	std    []float64
	degree int
}

// Evaluate applies the proxy to a raw feature vector.
func (p *Proxy) Evaluate(features []float64) float64 {
	z := make([]float64, len(features))
	for i, f := range features {
		z[i] = (f - p.mean[i]) / p.std[i]
	}
	basis := finmath.TensorBasis(z, p.degree, finmath.HermiteBasis)
	out := 0.0
	for i, c := range p.coeffs {
		out += c * basis[i]
	}
	return out
}

// NumCoefficients returns the size of the polynomial expansion.
func (p *Proxy) NumCoefficients() int { return len(p.coeffs) }

// CalibrateProxy runs the small nested calibration sample and regresses the
// noisy Y1 estimates on the orthonormal polynomial basis of the outer state.
func (v *Valuer) CalibrateProxy(spec LSMCSpec) (*Proxy, error) {
	probe := v.Features(v.GenerateOuter(0))
	if err := spec.Validate(len(probe)); err != nil {
		return nil, err
	}
	n := spec.CalibOuter
	feats := make([][]float64, n)
	targets := make([]float64, n)
	sc := v.job.newScratch()
	err := v.job.forEachOuter(0, n, sc, func(i int, st OuterState) error {
		feats[i] = v.Features(st)
		targets[i] = v.job.valueOuter(i, spec.CalibInner, st, sc)[0]
		return nil
	})
	sc.release()
	if err != nil {
		return nil, err
	}
	return FitProxy(feats, targets, spec)
}

// FitProxy regresses pre-computed targets on the orthonormal polynomial
// basis of the given feature vectors, producing the same Proxy that
// CalibrateProxy builds from its own nested sample. Callers supply one
// feature vector and target per calibration point; only spec.Degree and
// spec.Ridge participate (the sample sizes are taken from the data). It is
// the fitting half of the LSMC procedure, exposed so external serving tiers
// can train the polynomial proxy on samples they drew themselves.
func FitProxy(feats [][]float64, targets []float64, spec LSMCSpec) (*Proxy, error) {
	if len(feats) == 0 || len(feats) != len(targets) {
		return nil, fmt.Errorf("alm: FitProxy got %d feature rows and %d targets", len(feats), len(targets))
	}
	if spec.Degree <= 0 {
		return nil, errors.New("alm: LSMC degree must be positive")
	}
	n := len(feats)
	d := len(feats[0])
	if size := finmath.TensorBasisSize(d, spec.Degree); n < size {
		return nil, fmt.Errorf("alm: %d calibration points for %d basis functions", n, size)
	}

	// Standardise features for a well-conditioned Hermite design.
	mean := make([]float64, d)
	std := make([]float64, d)
	col := make([]float64, n)
	for k := 0; k < d; k++ {
		for i := range feats {
			col[i] = feats[i][k]
		}
		mean[k] = finmath.Mean(col)
		std[k] = finmath.StdDev(col)
		if std[k] < 1e-12 {
			std[k] = 1
		}
	}

	rows := make([][]float64, n)
	for i := range feats {
		z := make([]float64, d)
		for k := range z {
			z[k] = (feats[i][k] - mean[k]) / std[k]
		}
		rows[i] = finmath.TensorBasis(z, spec.Degree, finmath.HermiteBasis)
	}
	design := finmath.NewMatrixFrom(rows)
	// Scale the penalty with the target magnitude so the default strength is
	// dimensionless.
	scale := finmath.StdDev(targets)
	if scale < 1 {
		scale = 1
	}
	coeffs, err := finmath.SolveRidge(design, targets, spec.ridge()*scale)
	if err != nil {
		return nil, fmt.Errorf("alm: LSMC regression: %w", err)
	}
	return &Proxy{coeffs: coeffs, mean: mean, std: std, degree: spec.Degree}, nil
}

// ValueLSMC performs the accelerated valuation: calibrate the proxy on the
// small sample, then evaluate it on all block.Outer outer paths, avoiding
// the inner simulations entirely for the full sample.
func (v *Valuer) ValueLSMC(spec LSMCSpec) (*Result, error) {
	proxy, err := v.CalibrateProxy(spec)
	if err != nil {
		return nil, err
	}
	n := v.Block().Outer
	y1 := make([]float64, n)
	discounted := make([]float64, n)
	sc := v.job.newScratch()
	defer sc.release()
	err = v.job.forEachOuter(0, n, sc, func(i int, st OuterState) error {
		y1[i] = proxy.Evaluate(v.Features(st))
		discounted[i] = st.Discount * y1[i]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return summarize(y1, discounted, "lsmc"), nil
}
