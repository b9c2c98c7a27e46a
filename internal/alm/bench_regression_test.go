package alm

import (
	"testing"

	"disarcloud/internal/benchgate"
)

// TestValuationHotPathBenchSmoke gates the valuation walk against the
// committed BENCH_pr25.json baseline. allocs/op guards the zero-allocation
// property exactly (a handful of fixed-size scratch and result slices; any
// real leak back into the per-path loop lands thousands over it) for the
// single-block hot path and for the three-block job walked either way; ns/op
// catches gross slowdowns on a CI-class container (the polar sampler back
// under the generator reads about 1.9x on the hot path). The fusion itself
// is held as a ratio measured in one process, so the runner's speed cancels:
// the job walk should cost at most 0.6x of walking its blocks one after
// another. BENCH_pr31.json pins the walk of one block on three decrement
// bases, one shared book: allocs/op hard, ns/op a warning.
func TestValuationHotPathBenchSmoke(t *testing.T) {
	benchgate.Run(t, "../../BENCH_pr25.json", []benchgate.Row{
		{Name: "BenchmarkValuationHotPath", Bench: BenchmarkValuationHotPath},
		{Name: "BenchmarkJobWalk/per-block", Bench: benchmarkPerBlockWalk, NsWarnOnly: true},
		{Name: "BenchmarkJobWalk/job", Bench: benchmarkJobWalk, NsWarnOnly: true},
	})
	benchgate.Run(t, "../../BENCH_pr31.json", []benchgate.Row{
		{Name: "BenchmarkJobWalk/bases", Bench: benchmarkBasesWalk, NsWarnOnly: true},
	})
	perBlock, job := testing.Benchmark(benchmarkPerBlockWalk), testing.Benchmark(benchmarkJobWalk)
	ratio := float64(job.NsPerOp()) / float64(perBlock.NsPerOp())
	t.Logf("job walk %d ns/op, per-block walk %d ns/op: %.2fx", job.NsPerOp(), perBlock.NsPerOp(), ratio)
	if ratio > 0.6 {
		t.Logf("WARNING: the job walk costs %.2fx of the per-block walk, over the 0.6x it was built for (investigate if persistent)", ratio)
	}
	if job.AllocsPerOp() > perBlock.AllocsPerOp() {
		t.Errorf("the job walk allocates %d/op, more than the per-block walk's %d/op", job.AllocsPerOp(), perBlock.AllocsPerOp())
	}
}
