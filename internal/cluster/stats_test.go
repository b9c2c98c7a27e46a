package cluster

import (
	"math"
	"testing"

	"disarcloud/internal/grid"
)

// TestStatusDerivedStatsTable drives the status endpoint's derived figures
// through the degenerate counter states a fresh or partially used cluster
// reports — every one must be a finite number, never NaN or Inf from a
// divide by zero.
func TestStatusDerivedStatsTable(t *testing.T) {
	cases := []struct {
		name       string
		dispatched int64
		failures   int64
		paths      int64
		wantAvg    float64
		wantRate   float64
	}{
		{name: "fresh coordinator, nothing dispatched"},
		{name: "paths recorded but no slices (local fallback only)", paths: 120},
		{name: "failures without dispatches cannot divide", failures: 3},
		{name: "one slice, no failures", dispatched: 1, paths: 30, wantAvg: 30},
		{name: "all slices failed", dispatched: 4, failures: 4, wantRate: 1},
		{name: "mixed telemetry", dispatched: 8, failures: 2, paths: 120, wantAvg: 15, wantRate: 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(CoordinatorConfig{})
			c.slicesDispatched.Store(tc.dispatched)
			c.sliceFailures.Store(tc.failures)
			c.pathsDone.Store(tc.paths)
			st := c.Status()
			for label, v := range map[string]float64{
				"AvgPathsPerSlice": st.AvgPathsPerSlice,
				"SliceFailureRate": st.SliceFailureRate,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want finite", label, v)
				}
			}
			if st.AvgPathsPerSlice != tc.wantAvg {
				t.Errorf("AvgPathsPerSlice = %v, want %v", st.AvgPathsPerSlice, tc.wantAvg)
			}
			if st.SliceFailureRate != tc.wantRate {
				t.Errorf("SliceFailureRate = %v, want %v", st.SliceFailureRate, tc.wantRate)
			}
		})
	}
}

// TestSplitRangeTable pins the slicing arithmetic the scatter and re-slice
// paths share: full coverage, contiguity, and sane behaviour on degenerate
// inputs (zero survivors, more pieces than paths).
func TestSplitRangeTable(t *testing.T) {
	cases := []struct {
		name string
		s    sliceRange
		n    int
		want int // expected piece count
	}{
		{name: "even split", s: sliceRange{0, 30}, n: 3, want: 3},
		{name: "uneven split", s: sliceRange{0, 31}, n: 4, want: 4},
		{name: "more pieces than paths", s: sliceRange{0, 2}, n: 5, want: 2},
		{name: "zero pieces clamps to one", s: sliceRange{0, 7}, n: 0, want: 1},
		{name: "negative pieces clamps to one", s: sliceRange{3, 9}, n: -2, want: 1},
		{name: "offset range", s: sliceRange{10, 25}, n: 4, want: 4},
		{name: "single path", s: sliceRange{5, 6}, n: 3, want: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parts := splitRange(tc.s, tc.n)
			if len(parts) != tc.want {
				t.Fatalf("%d pieces, want %d", len(parts), tc.want)
			}
			at := tc.s.from
			for i, p := range parts {
				if p.from != at || p.to <= p.from {
					t.Fatalf("piece %+v breaks contiguity at %d", p, at)
				}
				at = p.to
				// One cut in the repo: piece i is the grid's chunk i, shifted.
				from, to := grid.SplitRange(tc.s.to-tc.s.from, len(parts), i)
				if p.from != tc.s.from+from || p.to != tc.s.from+to {
					t.Fatalf("piece %d = %+v, grid.SplitRange cuts [%d,%d)", i, p, tc.s.from+from, tc.s.from+to)
				}
			}
			if at != tc.s.to {
				t.Fatalf("pieces end at %d, want %d", at, tc.s.to)
			}
		})
	}
}
