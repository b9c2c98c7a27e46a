package experiments

import (
	"fmt"
	"io"
	"sort"

	"disarcloud/internal/finmath"
	"disarcloud/internal/kb"
	"disarcloud/internal/ml"
)

// AccuracyResult holds the per-classifier, per-architecture evaluation that
// Table I and Figures 2-3 are drawn from: for each architecture the six
// learners are trained on 40% of that architecture's knowledge-base slice
// and evaluated on the remaining 60%.
type AccuracyResult struct {
	Architectures []string
	Models        []string
	// DeltaBar[model][arch] is the signed mean error delta-bar in seconds
	// (Table I).
	DeltaBar map[string]map[string]float64
	// Pairs holds (real, predicted) pairs per model pooled across
	// architectures (Figure 2).
	Pairs map[string][][2]float64
	// EnsembleErrors holds predicted-real for the across-model average,
	// pooled across architectures (Figure 3).
	EnsembleErrors []float64
	// KBSize is the knowledge-base size the evaluation used.
	KBSize int
}

// EvaluateAccuracy reproduces the Table I methodology on the campaign's
// knowledge base. trainFrac is 0.40 in the paper.
func EvaluateAccuracy(k *kb.KB, seed uint64, trainFrac float64) (*AccuracyResult, error) {
	archs := k.Architectures()
	sort.Strings(archs)
	if len(archs) == 0 {
		return nil, fmt.Errorf("experiments: empty knowledge base")
	}
	res := &AccuracyResult{
		Architectures: archs,
		Models:        ml.SuiteNames(),
		DeltaBar:      make(map[string]map[string]float64),
		Pairs:         make(map[string][][2]float64),
		KBSize:        k.Len(),
	}
	for _, name := range res.Models {
		res.DeltaBar[name] = make(map[string]float64)
	}
	rng := finmath.NewRNG(seed)
	for _, arch := range archs {
		ds := k.Dataset(arch)
		if ds.Len() < 10 {
			return nil, fmt.Errorf("experiments: architecture %s has only %d samples", arch, ds.Len())
		}
		train, test := ds.Split(rng, trainFrac)
		suite := ml.NewSuite(seed + 1)
		if err := ml.TrainAll(suite, train); err != nil {
			return nil, fmt.Errorf("experiments: training on %s: %w", arch, err)
		}
		evals := make([]*ml.Evaluation, len(suite))
		for mi, m := range suite {
			ev, err := ml.Evaluate(m, test)
			if err != nil {
				return nil, err
			}
			evals[mi] = ev
			res.DeltaBar[m.Name()][arch] = ev.SignedMeanError
			for i := range ev.Actuals {
				res.Pairs[m.Name()] = append(res.Pairs[m.Name()],
					[2]float64{ev.Actuals[i], ev.Predictions[i]})
			}
		}
		// Ensemble error per test instance: average the model predictions.
		for i := range evals[0].Actuals {
			sum := 0.0
			for _, ev := range evals {
				sum += ev.Predictions[i]
			}
			res.EnsembleErrors = append(res.EnsembleErrors,
				sum/float64(len(evals))-evals[0].Actuals[i])
		}
	}
	return res, nil
}

// PrintTableI writes the delta-bar matrix in the paper's layout: one row
// per classifier, one column per architecture, values in seconds.
func (r *AccuracyResult) PrintTableI(w io.Writer) {
	fmt.Fprintf(w, "TABLE I: delta-bar per classifier per architecture (seconds), KB=%d samples, 40/60 split\n", r.KBSize)
	fmt.Fprintf(w, "%-8s", "")
	for _, a := range r.Architectures {
		fmt.Fprintf(w, "%14s", a)
	}
	fmt.Fprintln(w)
	for _, m := range r.Models {
		fmt.Fprintf(w, "%-8s", m)
		for _, a := range r.Architectures {
			fmt.Fprintf(w, "%14.1f", r.DeltaBar[m][a])
		}
		fmt.Fprintln(w)
	}
}

// Figure2Correlation returns the pooled predicted-vs-real correlation per
// model — the "clustered along the theoretical line" criterion of Figure 2.
func (r *AccuracyResult) Figure2Correlation() map[string]float64 {
	out := make(map[string]float64, len(r.Pairs))
	for name, pairs := range r.Pairs {
		real := make([]float64, len(pairs))
		pred := make([]float64, len(pairs))
		for i, p := range pairs {
			real[i], pred[i] = p[0], p[1]
		}
		out[name] = finmath.Correlation(real, pred)
	}
	return out
}

// PrintFigure2 writes the scatter series (real, predicted) per model; each
// series is what the paper plots against the theoretical y=x line. To keep
// output readable only every `stride`-th point is emitted.
func (r *AccuracyResult) PrintFigure2(w io.Writer, stride int) {
	if stride < 1 {
		stride = 1
	}
	fmt.Fprintln(w, "FIGURE 2: real time (s) vs predicted time (s) per model")
	corr := r.Figure2Correlation()
	for _, m := range r.Models {
		fmt.Fprintf(w, "# series %s (corr=%.4f)\n", m, corr[m])
		for i, p := range r.Pairs[m] {
			if i%stride == 0 {
				fmt.Fprintf(w, "%s %.1f %.1f\n", m, p[0], p[1])
			}
		}
	}
}

// Figure3Histogram bins the ensemble errors as percentages, mirroring the
// paper's histogram over (predicted - real) seconds.
func (r *AccuracyResult) Figure3Histogram(lo, hi float64, bins int) ([]float64, []float64) {
	counts := finmath.Histogram(r.EnsembleErrors, lo, hi, bins)
	centers := make([]float64, bins)
	pct := make([]float64, bins)
	width := (hi - lo) / float64(bins)
	for i, c := range counts {
		centers[i] = lo + (float64(i)+0.5)*width
		pct[i] = 100 * float64(c) / float64(len(r.EnsembleErrors))
	}
	return centers, pct
}

// ShareWithin returns the fraction of ensemble predictions whose absolute
// error is below the threshold — the paper reports ~80% within 200 s.
func (r *AccuracyResult) ShareWithin(seconds float64) float64 {
	n := 0
	for _, e := range r.EnsembleErrors {
		if e >= -seconds && e <= seconds {
			n++
		}
	}
	return float64(n) / float64(len(r.EnsembleErrors))
}

// PrintFigure3 writes the error histogram rows (bin center, percentage).
func (r *AccuracyResult) PrintFigure3(w io.Writer) {
	fmt.Fprintln(w, "FIGURE 3: distribution of (predicted - real) in seconds, ensemble predictions")
	centers, pct := r.Figure3Histogram(-1000, 1000, 20)
	for i := range centers {
		fmt.Fprintf(w, "%8.1f %6.2f%%\n", centers[i], pct[i])
	}
	fmt.Fprintf(w, "share with |error| < 200s: %.1f%%\n", 100*r.ShareWithin(200))
}
