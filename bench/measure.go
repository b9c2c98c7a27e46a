//go:build unix

package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"disarcloud/internal/core"
	"disarcloud/internal/experiments"
)

// metric is one reported value. N is the number of samples behind it and
// Rounds the per-round (or per-replayed-op) values it is the median of, so
// that the spread travels with the number.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n,omitempty"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// MachineSpeed is the box's speed over the untraced rounds relative to
	// the reference (calib.go); every end-to-end time is already scaled by
	// it, so raw = reported / speed for times and reported x speed for rates.
	MachineSpeed metric `json:"machine_speed"`
	// TailPercentile says which percentile latency_tail_ms is: the highest
	// with at least ten pooled samples beyond it.
	TailPercentile float64 `json:"latency_tail_percentile,omitempty"`
	// untracedOpsPerS feeds bench.trace_overhead_pct.
	untracedOpsPerS float64
	spans           []span
	replayedOps     int
}

func (r *workloadResult) fail(format string, a ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
}

// runPlan says how much one workload measures.
type runPlan struct {
	// seconds is the measured time to fill with rounds (at least minRounds
	// of them); rounds, when positive, fixes the round count instead.
	seconds float64
	rounds  int
	// replayOps caps the ops the traced run replays; replaying also stops
	// once it has used `seconds`.
	replayOps int
}

// minRounds is what the set-up median needs.
const minRounds = 3

// fixtureSeed roots the generated knowledge base and every deployer (the
// daemons' -seed, the replay's). It is fixed, not taken from -seed: both are
// part of the workload's definition, like the daemon's other flags. Which
// architecture Algorithm 1 settles on for the tiny job, and how many samples
// that architecture holds, decide the retrain cost of every op; across
// generation seeds that cost varies fourfold, which would make runs with
// different -seed incomparable. The traffic — seeds and portfolios of the
// bodies — still follows -seed.
const fixtureSeed = 2016

// kbFixture is a generated knowledge base on disk.
type kbFixture struct {
	path string
	genS float64 // generation time
}

// ensureKB generates the workload's knowledge base once per run, the way
// cmd/kbgen does, and returns its path and the generation time.
func (h *harness) ensureKB(w workload) (string, float64, error) {
	if w.kbSamples == 0 {
		return "", 0, nil
	}
	if kb, ok := h.kbs[w.name]; ok {
		return kb.path, kb.genS, nil
	}
	start := time.Now()
	c, err := experiments.NewCampaign(fixtureSeed, core.WithRetrainEvery(5))
	if err != nil {
		return "", 0, err
	}
	if err := c.BuildKB(w.kbSamples); err != nil {
		return "", 0, err
	}
	path := filepath.Join(h.outDir, fmt.Sprintf("kb_%s.json", w.name))
	if err := c.Deployer.KB().SaveFile(path); err != nil {
		return "", 0, err
	}
	kb := kbFixture{path: path, genS: time.Since(start).Seconds()}
	h.kbs[w.name] = kb
	return kb.path, kb.genS, nil
}

// checkRound applies the per-round invariants and counts failed ops.
// fingerprints holds op i's valuation from the first round that ran it:
// check (a) is that every later round — and, in a full run, the clustered
// twin of a workload — returns the same bits.
func checkRound(res *workloadResult, w workload, r *roundResult, fingerprints map[int]string, tag string) {
	for _, op := range r.ops {
		res.Attempted++
		if op.failure != "" {
			res.fail("%s op %d: %s", tag, op.index, op.failure)
			continue
		}
		fp := op.val.fingerprint()
		if want, seen := fingerprints[op.index]; !seen {
			fingerprints[op.index] = fp
		} else if fp != want {
			res.fail("%s op %d: result differs from an earlier run of the same op:\n  got  %s\n  want %s", tag, op.index, fp, want)
		}
	}
	if grew := r.after.kb - r.before.kb; grew != w.ops*w.jobsPerOp() {
		res.fail("%s: knowledge base grew by %d samples over %d deploys", tag, grew, w.ops*w.jobsPerOp())
	}
	if w.cluster {
		if d := r.after.cluster.SliceFailures - r.before.cluster.SliceFailures; d != 0 {
			res.fail("%s: %d cluster slice failures", tag, d)
		}
		if d := r.after.cluster.LocalFallbacks - r.before.cluster.LocalFallbacks; d != 0 {
			res.fail("%s: %d cluster local fallbacks", tag, d)
		}
		if d := r.after.cluster.SlicesDispatched - r.before.cluster.SlicesDispatched; d == 0 {
			res.fail("%s: the coordinator dispatched no slices", tag)
		}
	}
}

// verifyOp is check (c) on one op of a round: its HTTP result against the
// sequential reference computed in this process.
func (h *harness) verifyOp(ctx context.Context, res *workloadResult, w workload, op opResult, tag string) {
	if op.failure != "" {
		return // already counted
	}
	ref, _, err := w.reference(ctx, w.body(h.seed, op.index, h.nproc))
	if err != nil {
		res.fail("%s op %d: sequential reference: %v", tag, op.index, err)
		return
	}
	if err := op.val.matchesReference(ref); err != nil {
		res.fail("%s op %d: %v", tag, op.index, err)
	}
}

// measure runs the untraced rounds of a workload and reports the end-to-end
// metrics. fingerprints may be shared between workloads that must agree.
func (h *harness) measure(ctx context.Context, w workload, plan runPlan, fingerprints map[int]string) (*workloadResult, error) {
	kbPath, _, err := h.ensureKB(w)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{EndToEnd: map[string]metric{}}
	var setup, opsPerS, cpuPerOp, latency, speed []float64
	var perRound [][]float64 // the latencies again, round by round
	measured := 0.0
	var last *roundResult
	for k := 0; ; k++ {
		if plan.rounds > 0 && k >= plan.rounds {
			break
		}
		if plan.rounds == 0 && k >= minRounds && measured >= plan.seconds {
			break
		}
		tag := fmt.Sprintf("%s_r%d", w.name, k)
		r, err := h.runRound(ctx, w, tag, kbPath, k*w.ops, false)
		if err != nil {
			return nil, err
		}
		checkRound(res, w, r, fingerprints, tag)
		measured += r.wallS
		// Every duration of the round is reported at reference machine
		// speed (calib.go); f is below 1 when the box ran slow.
		f := r.speedFactor()
		speed = append(speed, f)
		setup = append(setup, r.setupS*f)
		opsPerS = append(opsPerS, float64(len(r.ops))/(r.wallS*f))
		cpuPerOp = append(cpuPerOp, r.cpuS()*f/float64(len(r.ops)))
		var roundLatency []float64
		for _, op := range r.ops {
			if op.failure == "" {
				roundLatency = append(roundLatency, op.latencyMS*f)
			}
		}
		latency = append(latency, roundLatency...)
		perRound = append(perRound, roundLatency)
		last = r
	}
	// One op per run against the sequential reference; which one rotates
	// with the seed so every portfolio archetype gets its turn.
	h.verifyOp(ctx, res, w, last.ops[int(h.seed%uint64(len(last.ops)))], w.name+" reference")

	res.untracedOpsPerS = median(opsPerS)
	res.MachineSpeed = metric{Value: median(speed), Unit: "ratio", N: len(speed), Rounds: speed}
	res.EndToEnd["setup_s"] = metric{Value: median(setup), Unit: "s", N: len(setup), Rounds: setup}
	res.EndToEnd["ops_per_s"] = metric{Value: median(opsPerS), Unit: "1/s", N: len(opsPerS), Rounds: opsPerS}
	res.EndToEnd["cpu_s_per_op"] = metric{Value: median(cpuPerOp), Unit: "s", N: len(cpuPerOp), Rounds: cpuPerOp}
	// Latency percentiles are taken over the pooled samples of all rounds;
	// the same percentile round by round travels along as the spread.
	tail := tailPercentile(len(latency))
	p50s, tails := make([]float64, len(perRound)), make([]float64, len(perRound))
	for k, l := range perRound {
		p50s[k], tails[k] = percentile(l, 50), percentile(l, tail)
	}
	res.EndToEnd["latency_p50_ms"] = metric{Value: percentile(latency, 50), Unit: "ms", N: len(latency), Rounds: p50s}
	res.EndToEnd["latency_tail_ms"] = metric{Value: percentile(latency, tail), Unit: "ms", N: len(latency), Rounds: tails}
	res.TailPercentile = tail
	return res, nil
}

// jobsPerOp is how many deploys (and knowledge-base samples) one op makes.
func (w workload) jobsPerOp() int {
	if w.campaign {
		return 8 // base + the seven standard-formula modules
	}
	return 1
}
