// Package benchgate is the CI bench-regression gate: it replays benchmarks
// through testing.Benchmark and compares them with the rows of a committed
// BENCH_*.json baseline. allocs/op and bytes/op are hardware-independent and
// hard-fail; ns/op is a trend, warned about and failed only when gross.
package benchgate

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// Row gates one benchmark against the baseline row of the same name.
type Row struct {
	Name  string
	Bench func(*testing.B)
	// BytesToo also hard-fails bytes/op. Leave it off where pooled buffers
	// make the figure depend on the garbage collector's timing.
	BytesToo bool
	// NsWarnOnly never fails on ns/op: for benchmarks whose wall clock
	// depends on the runner's core count.
	NsWarnOnly bool
}

type baseline struct {
	Benchmarks []struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		BytesPerOp  float64 `json:"bytes_per_op"`
	} `json:"benchmarks"`
}

const tolerance = 1.20 // the >20% regression bar

// Run replays every row against baselineFile. It is opt-in via BENCH_SMOKE=1
// so ordinary local `go test` runs are not hostage to machine speed.
func Run(t *testing.T, baselineFile string, rows []Row) {
	t.Helper()
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the bench-regression smoke")
	}
	data, err := os.ReadFile(baselineFile)
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("decode baseline: %v", err)
	}
	for _, row := range rows {
		t.Run(row.Name, func(t *testing.T) {
			var nsBase, allocsBase, bytesBase float64
			for _, b := range base.Benchmarks {
				if b.Name == row.Name {
					nsBase, allocsBase, bytesBase = b.NsPerOp, b.AllocsPerOp, b.BytesPerOp
				}
			}
			// A missing row decodes as all zeros; a recorded one always has
			// ns/op, and may pin 0 allocs/op (then any allocation fails).
			if nsBase <= 0 || (row.BytesToo && bytesBase <= 0) {
				t.Fatalf("%s has no usable %s entry (ns=%v allocs=%v bytes=%v)", baselineFile, row.Name, nsBase, allocsBase, bytesBase)
			}
			res := testing.Benchmark(row.Bench)
			gotNs := float64(res.NsPerOp())
			t.Logf("%.0f ns/op (baseline %.0f), %d allocs/op (baseline %.0f), %d B/op (baseline %.0f)",
				gotNs, nsBase, res.AllocsPerOp(), allocsBase, res.AllocedBytesPerOp(), bytesBase)
			// Hardware-independent quantities: the >20% bar is a hard failure.
			if got, bar := float64(res.AllocsPerOp()), math.Ceil(allocsBase*tolerance); got > bar {
				t.Errorf("allocs/op regressed: %.0f > %.0f (baseline %.0f +20%%)", got, bar, allocsBase)
			}
			if got, bar := float64(res.AllocedBytesPerOp()), math.Ceil(bytesBase*tolerance); row.BytesToo && got > bar {
				t.Errorf("bytes/op regressed: %.0f > %.0f (baseline %.0f +20%%)", got, bar, bytesBase)
			}
			// Wall clock on a shared runner is noisy: >20% is a loud warning,
			// and only a gross (>2x) slowdown — beyond plausible runner
			// variance — hard-fails. Set BENCH_NS_STRICT=1 on a quiet,
			// baseline-comparable machine to enforce the 20% bar on ns/op too.
			nsBar := 2.0
			if os.Getenv("BENCH_NS_STRICT") != "" {
				nsBar = tolerance
			}
			switch {
			case gotNs > nsBase*nsBar && !row.NsWarnOnly:
				t.Errorf("ns/op regressed: %.0f > %.0f (baseline %.0f, bar %.0f%%)", gotNs, nsBase*nsBar, nsBase, (nsBar-1)*100)
			case gotNs > nsBase*tolerance:
				t.Logf("WARNING: ns/op %.0f is >20%% over the %.0f baseline (investigate if persistent)", gotNs, nsBase)
			}
		})
	}
}
