package alm

import (
	"testing"

	"disarcloud/internal/benchgate"
)

// TestValuationHotPathBenchSmoke gates BenchmarkValuationHotPath against the
// committed BENCH_pr4.json baseline: allocs/op guards the zero-allocation
// property exactly (11 allocs of fixed-size scratch; any real leak back into
// the per-path loop lands thousands over it), ns/op catches gross slowdowns
// on a CI-class container.
func TestValuationHotPathBenchSmoke(t *testing.T) {
	benchgate.Run(t, "../../BENCH_pr4.json", []benchgate.Row{
		{Name: "BenchmarkValuationHotPath", Bench: BenchmarkValuationHotPath},
	})
}
