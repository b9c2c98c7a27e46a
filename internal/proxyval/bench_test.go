package proxyval

import (
	"context"
	"testing"

	"disarcloud/internal/alm"
)

// BenchmarkProxyValuation compares per-outer-path valuation throughput of
// the proxy fast path against the full nested pipeline on an
// internal-model-grade block (many inner paths). The fast path prices one
// outer path with a single model evaluation; the full path runs
// block.Inner conditional simulations — the ratio of the two ns/op figures
// is the serving-tier speedup reported by experiments.RunProxyComparison.
func BenchmarkProxyValuation(b *testing.B) {
	const outer, inner = 64, 100
	v := testValuer(b, outer, inner, 42)
	p, err := Train(context.Background(), v, Spec{TrainOuter: 48, Model: ModelPoly}, 7)
	if err != nil {
		b.Fatal(err)
	}
	feats := make([][]float64, outer)
	err = v.WalkOuter(context.Background(), 0, outer, func(i int, st alm.OuterState) error {
		feats[i] = v.Features(st)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := v.ValueOuter(i%outer, inner); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("proxy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Predict(feats[i%outer])
		}
	})
	b.Run("cascade", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Value(context.Background(), v, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
