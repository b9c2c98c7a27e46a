//go:build unix

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func loadResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one (workload, end-to-end metric) pair of a parent run a
// and a change run b by the rule of the choosing-metrics guide:
//
//   - worse: b's value is worse than a's by more than the bound;
//   - better: every round of b reads better than every round of a, or b is
//     better by more than the bound while the rounds of neither side spread
//     wider than the bound;
//   - unresolved: neither of the above, and the rounds of either side spread
//     (distance between their quartiles, over the value) wider than the
//     bound, so "unchanged" cannot be told from noise;
//   - unchanged: within the bound, with rounds that agree to within it.
func verdict(a, b metric, better string, bound float64) string {
	sign := 1.0 // positive delta = worse
	if better == "higher" {
		sign = -1
	}
	if a.Value == 0 {
		if b.Value == 0 {
			return "unchanged"
		}
		return "unresolved"
	}
	delta := sign * (b.Value - a.Value) / a.Value
	if delta > bound {
		return "worse"
	}
	if len(a.Rounds) > 0 && len(b.Rounds) > 0 {
		aLo, aHi := minMax(a.Rounds)
		bLo, bHi := minMax(b.Rounds)
		if (better == "lower" && bHi < aLo) || (better == "higher" && bLo > aHi) {
			return "better"
		}
		aQ1, aQ3 := quartiles(a.Rounds)
		bQ1, bQ3 := quartiles(b.Rounds)
		if (aQ3-aQ1)/a.Value > bound || (bQ3-bQ1)/b.Value > bound {
			return "unresolved"
		}
	}
	if delta < -bound {
		return "better"
	}
	return "unchanged"
}

// compareFiles prints one row per workload with a verdict per end-to-end
// metric, and exits non-zero on any "worse" or any newly failed op.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	bench, err := loadBenchmarkFile()
	if err != nil {
		return 1, err
	}
	a, err := loadResultFile(pathA)
	if err != nil {
		return 1, err
	}
	b, err := loadResultFile(pathB)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "a: %s (commit %s, load %.2f)\nb: %s (commit %s, load %.2f)\n",
		pathA, a.Env.Commit, a.Env.LoadAvg1, pathB, b.Env.Commit, b.Env.LoadAvg1)
	header := fmt.Sprintf("%-18s", "workload")
	for _, m := range bench.EndToEnd {
		header += fmt.Sprintf(" %-24s", fmt.Sprintf("%s(%.0f%%)", m.Name, 100*m.Bound))
	}
	fmt.Fprintln(w, header+" failed")
	worse := 0
	for _, wl := range bench.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-18s missing from a result file\n", wl.Name)
			worse++
			continue
		}
		row := fmt.Sprintf("%-18s", wl.Name)
		for _, m := range bench.EndToEnd {
			ma, mb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v := verdict(ma, mb, m.Better, m.Bound)
			if v == "worse" {
				worse++
			}
			change := 0.0
			if ma.Value != 0 {
				change = 100 * (mb.Value - ma.Value) / ma.Value
			}
			row += fmt.Sprintf(" %-24s", fmt.Sprintf("%s %+.1f%%", v, change))
		}
		row += fmt.Sprintf(" %d/%d -> %d/%d", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		// failed_share may not rise at all.
		if float64(rb.Failed)*float64(ra.Attempted) > float64(ra.Failed)*float64(rb.Attempted) {
			row += " worse"
			worse++
		}
		fmt.Fprintln(w, strings.TrimRight(row, " "))
	}
	if worse > 0 {
		return 1, fmt.Errorf("%d verdicts are worse", worse)
	}
	return 0, nil
}
