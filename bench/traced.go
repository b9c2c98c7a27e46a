//go:build unix

package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// trace runs the traced part of a workload into res.PerLayer: one extra
// round that also fetches each op's lifecycle stamps and the end-of-round
// gauges (H), then the stage replay of sampled ops (R). End-to-end numbers
// never come from here.
func (h *harness) trace(ctx context.Context, w workload, plan runPlan, res *workloadResult, fingerprints map[int]string) error {
	kbPath, kbgenS, err := h.ensureKB(w)
	if err != nil {
		return err
	}
	if res.untracedOpsPerS == 0 {
		// A traced-only run still needs an untraced round to price tracing.
		tag := w.name + "_untraced"
		r, err := h.runRound(ctx, w, tag, kbPath, 0, false)
		if err != nil {
			return err
		}
		checkRound(res, w, r, fingerprints, tag)
		res.untracedOpsPerS = float64(len(r.ops)) / (r.wallS * r.speedFactor())
	}
	tag := w.name + "_traced"
	r, err := h.runRound(ctx, w, tag, kbPath, 0, true)
	if err != nil {
		return err
	}
	checkRound(res, w, r, fingerprints, tag)

	// values holds per-op samples (reported as their median), counts single
	// readings and exact counts.
	values, counts := samples{}, surfaceMetrics(w, r)
	counts["bench.trace_overhead_pct"] = 100 * (res.untracedOpsPerS - float64(len(r.ops))/(r.wallS*r.speedFactor())) / res.untracedOpsPerS
	counts["bench.build_s"] = h.buildS
	counts["bench.kbgen_s"] = kbgenS

	tr := newTracer()
	rp, err := newReplayer(w, h.nproc, kbPath, tr)
	if err != nil {
		return err
	}
	if err := h.replay(ctx, rp, plan, r, res); err != nil {
		return err
	}
	constants, err := layerConstants(ctx, h.seed, h.nproc)
	if err != nil {
		return err
	}
	for name, v := range rp.vals {
		values[name] = v
	}
	for name, v := range constants {
		values[name] = v
	}
	for name, v := range rp.counts {
		counts[name] = v
	}
	if run := counts["core.run_ms_p50"]; run > 0 {
		counts["core.deploy_share"] = median(values["core.deploy_hold_ms_p50"]) / run
	}

	res.PerLayer = make(map[string]metric, len(perLayerDefs))
	for _, def := range perLayerDefs {
		if v, ok := values[def.name]; ok {
			res.PerLayer[def.name] = metric{Value: median(v), Unit: def.unit, N: len(v), Rounds: v}
		} else if c, ok := counts[def.name]; ok {
			res.PerLayer[def.name] = metric{Value: c, Unit: def.unit, N: 1}
		} else {
			// What this workload cannot have — cluster traffic without a
			// cluster, a derived fill without a campaign — reads 0.
			res.PerLayer[def.name] = metric{Unit: def.unit}
		}
	}
	for name := range values {
		if _, ok := defByName(perLayerDefs, name); !ok {
			return fmt.Errorf("bench: undeclared per-layer metric %s", name)
		}
	}
	for name := range counts {
		if _, ok := defByName(perLayerDefs, name); !ok {
			return fmt.Errorf("bench: undeclared per-layer metric %s", name)
		}
	}
	res.spans = tr.snapshot()
	return writeTrace(filepath.Join(h.outDir, "trace_"+w.name+".json"), res.spans)
}

// surfaceMetrics are the (H) metrics: what the traced round read from the
// HTTP surface and /proc. Durations here are raw, not speed-scaled.
func surfaceMetrics(w workload, r *roundResult) map[string]float64 {
	nOps := float64(len(r.ops))
	var ack, fetch, queue, run, predErr []float64
	var bytes, misses float64
	for _, op := range r.ops {
		if op.deadlineMiss {
			misses++
		}
		if op.failure != "" {
			continue
		}
		ack = append(ack, op.ackMS)
		fetch = append(fetch, op.fetchMS)
		bytes += float64(op.bytes)
		for _, j := range op.jobs {
			queue = append(queue, float64(j.StartedAt.Sub(j.SubmittedAt).Microseconds())/1000)
			run = append(run, float64(j.FinishedAt.Sub(j.StartedAt).Microseconds())/1000)
		}
		if d := op.deploy; d != nil && !d.Bootstrap && d.ActualSeconds > 0 {
			predErr = append(predErr, 100*math.Abs(d.PredictedSeconds-d.ActualSeconds)/d.ActualSeconds)
		}
	}
	m := map[string]float64{
		"disard.boot_ms":                 r.bootMS,
		"disard.submit_ack_ms_p50":       percentile(ack, 50),
		"disard.result_fetch_ms_p50":     percentile(fetch, 50),
		"disard.http_bytes_per_op":       bytes / nOps,
		"disard.peak_rss_mb":             r.peakRSSMB,
		"core.queue_wait_ms_p50":         percentile(queue, 50),
		"core.run_ms_p50":                percentile(run, 50),
		"provision.pred_abs_err_pct_p50": percentile(predErr, 50), // 0 while every deploy is a bootstrap pick
		"provision.deadline_miss_share":  misses / nOps,
		"kb.size_end":                    float64(r.after.kb),
		"cloud.billed_usd_per_op":        (r.after.billedUSD - r.before.billedUSD) / nOps,
		"bench.machine_speed_x":          r.speedFactor(),
	}
	if w.cluster {
		before, after := r.before.cluster, r.after.cluster
		slices := float64(after.SlicesDispatched - before.SlicesDispatched)
		m["cluster.slices_per_op"] = slices / nOps
		if slices > 0 {
			m["cluster.paths_per_slice"] = float64(after.PathsDone-before.PathsDone) / slices
		}
		m["cluster.slice_failures"] = float64(after.SliceFailures - before.SliceFailures)
		m["cluster.local_fallbacks"] = float64(after.LocalFallbacks - before.LocalFallbacks)
		m["cluster.worker_cpu_share"] = (r.after.workerCPUS - r.before.workerCPUS) / r.cpuS()
	}
	return m
}

// replay walks up to plan.replayOps ops of the traced round, spread over its
// indices, through the stage replay, stopping early once plan.seconds are
// used. Each replayed op is correctness check (c) three times over: the
// daemon's result, grid.Master's and (on the cluster workload) the
// in-process cluster's against the sequential reference.
func (h *harness) replay(ctx context.Context, rp *replayer, plan runPlan, r *roundResult, res *workloadResult) error {
	w := rp.w
	n := min(plan.replayOps, len(r.ops))
	started := time.Now()
	for k := 0; k < n; k++ {
		if k > 0 && time.Since(started).Seconds() >= plan.seconds {
			break
		}
		op := r.ops[k*len(r.ops)/n]
		body := w.body(h.seed, op.index, h.nproc)
		runVal, ref, err := rp.replayOp(ctx, body, op.index)
		if err != nil {
			return fmt.Errorf("bench: replay of %s op %d: %w", w.name, op.index, err)
		}
		res.replayedOps++
		res.Attempted++
		if err := runVal.matchesReference(ref); err != nil {
			res.fail("%s replay op %d: grid.Master: %v", w.name, op.index, err)
			continue
		}
		if op.failure == "" { // a failed op is already counted
			if err := op.val.matchesReference(ref); err != nil {
				res.fail("%s replay op %d: daemon: %v", w.name, op.index, err)
				continue
			}
		}
		if !w.cluster {
			continue
		}
		clusterVal, err := rp.probeCluster(ctx, body, op.index)
		if err != nil {
			return fmt.Errorf("bench: cluster probe of %s op %d: %w", w.name, op.index, err)
		}
		if err := clusterVal.matchesReference(ref); err != nil {
			res.fail("%s replay op %d: in-process cluster: %v", w.name, op.index, err)
		}
	}
	return nil
}
