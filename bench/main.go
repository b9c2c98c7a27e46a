//go:build unix

// Command bench is the repository benchmark: four closed-loop, unpaced HTTP
// workloads against real disard processes, reporting end-to-end metrics from
// untraced rounds and per-layer metrics from a traced round plus a stage
// replay. BENCHMARK.json at the repository root declares its workloads,
// metrics and bounds; README.md in this directory explains them.
//
//	go run ./bench -seed 2016                     every workload, untraced and traced
//	go run ./bench -workload nested_mc -trace 0   one workload's end-to-end metrics
//	go run ./bench -workload nested_mc -trace 1   one workload's per-layer metrics
//	go run ./bench -compare a.json b.json         judge two result files by the bounds
//
// A single-workload run ends with one JSON line: correct, attempted, failed
// and the metrics. Any failed op or correctness mismatch exits non-zero.
// End-to-end times are reported at reference machine speed (calib.go).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 15

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run is main without the exit: the exit code and any harness error.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 2016, "workload seed: op i uses seed+1+i and portfolio i mod 3")
		name     = fs.String("workload", "", "run one workload and end with one JSON result line (default: all)")
		seconds  = fs.Float64("seconds", defaultSeconds, "measured seconds per workload, filled with fixed-size rounds (at least 3)")
		rounds   = fs.Int("rounds", 0, "run exactly this many rounds instead of filling -seconds")
		traceArg = fs.String("trace", "", "0 = untraced rounds only, 1 = traced round + stage replay; all-workload runs default to both")
		out      = fs.String("out", "", "write the all-workload result file here (default bench/out/result.json)")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments by BENCHMARK.json's bounds")
		smoke    = fs.Bool("smoke", false, "plumbing check: 1 round x 2 small ops per workload")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceArg != "" && *traceArg != "0" && *traceArg != "1" {
		return 2, fmt.Errorf("-trace takes 0 or 1")
	}
	if *seconds <= 0 || *rounds < 0 {
		return 2, fmt.Errorf("-seconds must be positive and -rounds non-negative")
	}
	plan := runPlan{seconds: *seconds, rounds: *rounds, replayOps: 5}
	selected := append([]workload(nil), workloads...)
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	if *smoke {
		plan.rounds, plan.replayOps = 1, 1
		for i := range selected {
			selected[i] = selected[i].smoke()
		}
	}

	// SIGINT cancels the context; every exit path below runs killAll.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	h, err := newHarness(ctx, *seed, runtime.NumCPU())
	if err != nil {
		return 1, err
	}
	defer h.procs.killAll()

	if *name != "" {
		return h.runOne(ctx, stdout, selected[0], plan, *traceArg == "1")
	}
	return h.runAll(ctx, stdout, selected, plan, *traceArg, *out)
}

// runOne is the single-workload mode the benchmark driver calls: untraced
// end-to-end metrics, or traced per-layer metrics, and the JSON result line.
func (h *harness) runOne(ctx context.Context, stdout io.Writer, w workload, plan runPlan, traced bool) (int, error) {
	fingerprints := map[int]string{}
	var res *workloadResult
	var err error
	if traced {
		res = &workloadResult{}
		err = h.trace(ctx, w, plan, res, fingerprints)
	} else {
		res, err = h.measure(ctx, w, plan, fingerprints)
	}
	if err != nil {
		return 1, err
	}
	printWorkload(stdout, w, res)
	metrics := res.EndToEnd
	if traced {
		metrics = res.PerLayer
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for k, m := range metrics {
		line.Metrics[k] = driverValue{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(data))
	if res.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// driverValue is a metric as the result line carries it.
type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment describes the box a result file was measured on.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"load_avg_1m_at_start"`
	// Overloaded flags a start load above nproc: the numbers then measured
	// somebody else's work too.
	Overloaded bool   `json:"overloaded"`
	Commit     string `json:"commit"`
}

// resultFile is what an all-workload run writes and -compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Seed uint64      `json:"seed"`
	// Paced is always false: every body carries pace_factor 0, so times are
	// real compute. Simulated names the result fields that are virtual-time
	// regardless.
	Paced     bool                       `json:"paced"`
	Simulated []string                   `json:"simulated"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// Derived holds cross-workload figures.
	Derived map[string]metric `json:"derived,omitempty"`
}

func (h *harness) environment() environment {
	load := loadAverage1()
	env := environment{
		NProc: h.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), LoadAvg1: load, Overloaded: load > float64(h.nproc), Commit: "unknown",
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = h.root
	if out, err := cmd.Output(); err == nil { // a source archive has no commit to name
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// runAll runs every selected workload, untraced then traced, prints every
// metric and writes the result file.
func (h *harness) runAll(ctx context.Context, stdout io.Writer, selected []workload, plan runPlan, traceArg, outPath string) (int, error) {
	file := resultFile{
		Env: h.environment(), Seed: h.seed, Paced: false,
		Simulated: []string{"deploy.actual_seconds", "deploy.predicted_seconds", "deploy.billed_usd", "cloud.billed_usd_per_op"},
		Workloads: map[string]*workloadResult{}, Derived: map[string]metric{},
	}
	fmt.Fprintf(stdout, "bench: seed %d, nproc %d, %s, load %.2f, commit %s, paced: false\n",
		h.seed, h.nproc, file.Env.CPUModel, file.Env.LoadAvg1, file.Env.Commit)
	if file.Env.Overloaded {
		fmt.Fprintf(stdout, "bench: WARNING 1-minute load %.2f exceeds nproc %d\n", file.Env.LoadAvg1, h.nproc)
	}
	// campaign and cluster_campaign post the same bodies, so they share one
	// fingerprint table: check (b) is check (a) across the two.
	campaignPrints := map[int]string{}
	failed := 0
	for _, w := range selected {
		fingerprints := map[int]string{}
		if w.campaign {
			fingerprints = campaignPrints
		}
		res, err := h.measure(ctx, w, plan, fingerprints)
		if err != nil {
			return 1, err
		}
		if traceArg != "0" {
			if err := h.trace(ctx, w, plan, res, fingerprints); err != nil {
				return 1, err
			}
		}
		printWorkload(stdout, w, res)
		file.Workloads[w.name] = res
		failed += res.Failed
	}
	plain, clustered := file.Workloads["campaign"], file.Workloads["cluster_campaign"]
	if plain != nil && clustered != nil {
		x := metric{Value: clustered.EndToEnd["latency_p50_ms"].Value / plain.EndToEnd["latency_p50_ms"].Value, Unit: "ratio", N: 1}
		file.Derived["cluster.overhead_x"] = x
		fmt.Fprintf(stdout, "\ncluster.overhead_x %.3f ratio  (cluster_campaign / campaign latency_p50_ms; nproc workers on nproc cores: an overhead figure, not a scaling claim)\n", x.Value)
	}
	if outPath == "" {
		outPath = filepath.Join(h.outDir, "result.json")
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "\nresult file: %s\n", outPath)
	if failed > 0 {
		return 1, fmt.Errorf("%d failed ops or correctness mismatches", failed)
	}
	return 0, nil
}

// printWorkload prints every metric of the workload by name with its unit,
// the sample count and the per-round range, then the failures and the
// where-the-time-goes table of the replay.
func printWorkload(w io.Writer, wl workload, res *workloadResult) {
	fmt.Fprintf(w, "\n== %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "   attempted %d, failed %d (times are real compute, paced: false; dollars and deploy seconds are simulated)\n",
		res.Attempted, res.Failed)
	printMetrics := func(title string, defs []metricDef, metrics map[string]metric) {
		if len(metrics) == 0 {
			return
		}
		fmt.Fprintf(w, " %s\n", title)
		for _, def := range defs {
			m, ok := metrics[def.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-38s %14.6g %-6s n=%d", def.name, m.Value, m.Unit, m.N)
			if len(m.Rounds) > 1 {
				lo, hi := minMax(m.Rounds)
				line += fmt.Sprintf("  rounds %.6g..%.6g", lo, hi)
			}
			fmt.Fprintln(w, line)
		}
	}
	printMetrics("end-to-end (untraced rounds, at reference machine speed)", endToEndDefs, res.EndToEnd)
	if len(res.EndToEnd) > 0 {
		lo, hi := minMax(res.MachineSpeed.Rounds)
		fmt.Fprintf(w, "  latency_tail_ms is p%.0f; the box ran at %.3f x reference speed (rounds %.3f..%.3f): raw time = reported / that\n",
			res.TailPercentile, res.MachineSpeed.Value, lo, hi)
	}
	printMetrics("per-layer (traced round and stage replay)", perLayerDefs, res.PerLayer)
	if len(res.spans) > 0 {
		fmt.Fprintf(w, " where the time goes (%d replayed ops)\n", res.replayedOps)
		printTimeTable(w, res.spans, res.replayedOps)
	}
	sort.Strings(res.Failures)
	for _, f := range res.Failures {
		fmt.Fprintf(w, " FAILED %s\n", f)
	}
}
