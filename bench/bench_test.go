//go:build unix

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// Median plus the highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{9, 50}, {19, 50}, {30, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {216, 95}, {360, 95}, {5000, 95},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", tc.n, got, tc.want)
		}
	}
	samples := make([]float64, 360)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 360..1: percentile must not depend on order
	}
	if got := percentile(samples, 95); got != 342 {
		t.Errorf("p95 of 1..360 = %v, want 342 (18 samples beyond)", got)
	}
	if got := percentile(samples, 50); got != 180 {
		t.Errorf("p50 of 1..360 = %v, want 180", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three samples = %v, %v, want the extremes", q1, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},                // overlaps a: 10..60 covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},               // sticks out: only 90..100 counts
		{ID: 5, Parent: 1, Name: "p", Start: 500, End: 520, Probe: true}, // standalone: duration counts
		{ID: 6, Parent: 2, Name: "leaf", Start: 10, End: 25},
		{ID: 7, Name: "probed", Start: 0, End: 10},
		{ID: 8, Parent: 7, Name: "big", Start: 200, End: 230, Probe: true},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - 50 - 10 - 20, // a|b cover 50, c covers 10, the probe 20
		2: 30 - 15,
		3: 30,
		6: 15,
		7: 10 - 30, // the probe cost more standalone than its parent had room for: reported, not clipped
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestBodiesFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < w.ops+w.warmup; i++ {
			a, b := w.body(2016, i, 2).json(), w.body(2016, i, 2).json()
			if !bytes.Equal(a, b) {
				t.Fatalf("%s op %d: equal seeds gave different bodies", w.name, i)
			}
			if other := w.body(7, i, 2).json(); bytes.Equal(a, other) {
				t.Fatalf("%s op %d: seeds 2016 and 7 gave the same body %s", w.name, i, a)
			}
			if i > 0 && bytes.Equal(a, w.body(2016, i-1, 2).json()) {
				t.Fatalf("%s ops %d and %d share a body", w.name, i-1, i)
			}
		}
		if zero := w.body(0, 0, 2); zero.Seed == 0 {
			t.Errorf("%s: -seed 0 reaches the server-assigned seed 0", w.name)
		}
		if !bytes.Contains(w.body(1, 0, 2).json(), []byte(`"pace_factor":0`)) {
			t.Errorf("%s: body does not state pace_factor 0", w.name)
		}
	}
	plain, _ := workloadByName("campaign")
	clustered, _ := workloadByName("cluster_campaign")
	if !bytes.Equal(plain.body(2016, 1, 2).json(), clustered.body(2016, 1, 2).json()) {
		t.Error("campaign and cluster_campaign must post the same bodies")
	}
}

func TestVerdict(t *testing.T) {
	m := func(v float64, rounds ...float64) metric { return metric{Value: v, Rounds: rounds} }
	for _, tc := range []struct {
		name   string
		a, b   metric
		better string
		bound  float64
		want   string
	}{
		{"slower beyond the bound", m(100, 99, 101), m(120, 119, 121), "lower", 0.10, "worse"},
		{"throughput down beyond the bound", m(10, 10, 10), m(8, 8, 8), "higher", 0.10, "worse"},
		{"within the bound, tight rounds", m(100, 99, 101), m(104, 103, 105), "lower", 0.10, "unchanged"},
		{"within the bound, rounds too wide to tell", m(100, 80, 120), m(104, 90, 118), "lower", 0.10, "unresolved"},
		{"every round better", m(100, 95, 120), m(90, 80, 94), "lower", 0.10, "better"},
		{"better beyond the bound", m(100, 91, 100.5), m(85, 84, 92), "lower", 0.10, "better"},
		{"better beyond the bound, rounds too wide to tell", m(100, 80, 110), m(85, 75, 100), "lower", 0.10, "unresolved"},
		{"higher is better", m(10, 9.9, 10.1), m(12, 11.9, 12.1), "higher", 0.10, "better"},
		{"no rounds recorded", m(100), m(105), "lower", 0.10, "unchanged"},
	} {
		if got := verdict(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkFileMatchesTheTables keeps BENCHMARK.json and the metric and
// workload tables of this package in step.
func TestBenchmarkFileMatchesTheTables(t *testing.T) {
	b, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, defined %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: declared %+v, defined %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(b.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: declared %+v, defined %+v", i, got, d)
		}
	}
}

// daemonsAlive lists the pids of processes running the benchmark's daemon
// binary.
func daemonsAlive(t *testing.T) []string {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(root, "bench", "out", "disard")
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("no /proc to inspect")
	}
	var pids []string
	for _, e := range entries {
		cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err == nil && strings.HasPrefix(string(cmdline), bin+"\x00") {
			pids = append(pids, e.Name())
		}
	}
	return pids
}

// TestSmoke runs every workload end to end at plumbing size — real daemon
// processes, the cluster included — and asserts that each prints exactly the
// declared metrics, that nothing failed a correctness check, and that no
// process outlives the run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemon processes")
	}
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout bytes.Buffer
	code, err := run([]string{"-smoke", "-seed", "7", "-out", out}, &stdout)
	if err != nil || code != 0 {
		t.Fatalf("smoke run: exit %d, %v\n%s", code, err, stdout.String())
	}
	if left := daemonsAlive(t); len(left) > 0 {
		t.Errorf("daemon processes outlived the run: pids %v", left)
	}
	file, err := loadResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if file.Paced {
		t.Error("result file claims paced results")
	}
	for _, w := range workloads {
		res := file.Workloads[w.name]
		if res == nil {
			t.Fatalf("workload %s missing from the result file", w.name)
		}
		if !strings.Contains(stdout.String(), "== "+w.name+":") {
			t.Errorf("workload %s not printed", w.name)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		checkNames := func(kind string, defs []metricDef, got map[string]metric) {
			for _, d := range defs {
				if _, ok := got[d.name]; !ok {
					t.Errorf("%s: declared %s metric %s not reported", w.name, kind, d.name)
				}
				if !strings.Contains(stdout.String(), "  "+d.name+" ") {
					t.Errorf("%s metric %s not printed", kind, d.name)
				}
			}
			for name := range got {
				if _, ok := defByName(defs, name); !ok {
					t.Errorf("%s: undeclared %s metric %s reported", w.name, kind, name)
				}
			}
		}
		checkNames("end-to-end", endToEndDefs, res.EndToEnd)
		checkNames("per-layer", perLayerDefs, res.PerLayer)
		for _, d := range endToEndDefs {
			if res.EndToEnd[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, res.EndToEnd[d.name].Value)
			}
		}
	}
	if _, ok := file.Derived["cluster.overhead_x"]; !ok {
		t.Error("cluster.overhead_x not derived")
	}
	clustered := file.Workloads["cluster_campaign"].PerLayer
	for _, name := range []string{"cluster.slices_per_op", "cluster.bytes_out_per_op", "cluster.bytes_in_per_op", "cluster.worker_cpu_share"} {
		if clustered[name].Value <= 0 {
			t.Errorf("cluster_campaign: %s = %v, want positive", name, clustered[name].Value)
		}
	}
}

// TestOutsideInHooks guards the two places the benchmark looks into the
// system from outside. If the cluster moves off http.DefaultTransport, or the
// job status drops a lifecycle stamp, a column would silently read zero; this
// fails instead.
func TestOutsideInHooks(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon process")
	}
	ctx := context.Background()
	w, _ := workloadByName("cluster_campaign")
	w = w.smoke()

	// Two workers even on a one-core box: one worker owns every scenario
	// shard and fetches nothing.
	rp, err := newReplayer(w, 2, "", newTracer())
	if err != nil {
		t.Fatal(err)
	}
	before := http.DefaultTransport
	if _, err := rp.probeCluster(ctx, w.body(7, 0, 2), 0); err != nil {
		t.Fatal(err)
	}
	if http.DefaultTransport != before {
		t.Error("the counting transport was left installed")
	}
	for _, name := range []string{"cluster.bytes_out_per_op", "cluster.bytes_in_per_op",
		"cluster.scenario_fetches_per_op", "cluster.scenario_bytes_per_op"} {
		if rp.counts[name] <= 0 {
			t.Errorf("%s = %v: the counting transport no longer sees the cluster's traffic", name, rp.counts[name])
		}
	}

	h, err := newHarness(ctx, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.procs.killAll()
	job, _ := workloadByName("nested_mc")
	job = job.smoke()
	f, err := h.boot(ctx, job, "hooks", "")
	if err != nil {
		t.Fatal(err)
	}
	status, body, _, err := h.call(ctx, http.MethodPost, f.base+"/v1/jobs", job.body(7, 0, 2).json())
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", status, err)
	}
	var ack struct{ ID string }
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if status, _, _, err := h.call(ctx, http.MethodGet, f.base+"/v1/jobs/"+ack.ID+"/result?wait=1", nil); err != nil || status != http.StatusOK {
		t.Fatalf("result: status %d, %v", status, err)
	}
	var snapshot map[string]any
	if err := h.getJSON(ctx, f.base+"/v1/jobs/"+ack.ID, &snapshot); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"submitted_at", "started_at", "finished_at", "done", "total", "status"} {
		if _, ok := snapshot[field]; !ok {
			t.Errorf("GET /v1/jobs/{id} no longer carries %q: %v", field, snapshot)
		}
	}
	daemon := f.daemon
	f.kill()
	if !daemon.exited() {
		t.Error("the daemon survived kill")
	}
	h.procs.mu.Lock()
	left := len(h.procs.procs)
	h.procs.mu.Unlock()
	if left != 0 {
		t.Errorf("%d processes still registered after kill", left)
	}
}
