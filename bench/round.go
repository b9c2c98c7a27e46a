//go:build unix

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// harness is the single load-generating process: it owns the daemon binary,
// every process started from it and the HTTP client the ops go through.
type harness struct {
	root   string // repository root
	outDir string // bench/out: binary, per-round KB copies, daemon logs, traces
	bin    string // built cmd/disard
	buildS float64
	nproc  int
	seed   uint64
	procs  procSet
	kbs    map[string]kbFixture // generated knowledge bases by workload name
	// client is the load generator's own connection pool, at most nproc
	// connections to the daemon; http.DefaultTransport stays free for the
	// counting wrapper of the in-process cluster probe.
	client *http.Client
}

func newHarness(ctx context.Context, seed uint64, nproc int) (*harness, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	bin, buildS, err := buildDaemon(ctx, root, outDir)
	if err != nil {
		return nil, err
	}
	return &harness{
		root: root, outDir: outDir, bin: bin, buildS: buildS, nproc: nproc, seed: seed,
		kbs: map[string]kbFixture{},
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: nproc,
			MaxConnsPerHost:     nproc,
		}},
	}, nil
}

// fleet is the set of processes one round runs against.
type fleet struct {
	base    string // http://host:port of the daemon (the coordinator when clustered)
	daemon  *proc
	workers []*proc
	bootMS  float64 // daemon process start to /healthz ok
}

func (f *fleet) kill() {
	for _, w := range f.workers {
		w.kill()
	}
	f.daemon.kill()
}

// call performs one HTTP exchange and returns the status, the fully read
// body and the body bytes sent plus received.
func (h *harness) call(ctx context.Context, method, url string, body []byte) (int, []byte, int64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, out, int64(len(body) + len(out)), nil
}

// getJSON fetches url and decodes a 200 reply into out.
func (h *harness) getJSON(ctx context.Context, url string, out any) error {
	status, body, _, err := h.call(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// pollEvery is how often boot waits re-probe a daemon that is not up yet.
const pollEvery = 2 * time.Millisecond

// waitFor polls probe until it succeeds, the process dies, or 30 s pass.
func waitFor(ctx context.Context, p *proc, what string, probe func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := probe()
		if err == nil {
			return nil
		}
		if p.exited() {
			return fmt.Errorf("bench: %s: process exited (see %s)", what, p.log.Name())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s: %w", what, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

// boot starts the workload's processes on free loopback ports and returns
// once the daemon answers /healthz and every worker has joined. kbPath, when
// set, is copied first so no round sees another round's samples.
func (h *harness) boot(ctx context.Context, w workload, tag, kbPath string) (*fleet, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-workers", strconv.Itoa(h.nproc), "-seed", strconv.FormatUint(fixtureSeed, 10)}
	if kbPath != "" {
		data, err := os.ReadFile(kbPath)
		if err != nil {
			return nil, err
		}
		roundKB := filepath.Join(h.outDir, tag+"_kb.json")
		if err := os.WriteFile(roundKB, data, 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-kb", roundKB)
	}
	if w.cluster {
		args = append(args, "-cluster")
	}
	start := time.Now()
	daemon, err := h.procs.start(h.bin, filepath.Join(h.outDir, tag+"_daemon.log"), args...)
	if err != nil {
		return nil, err
	}
	f := &fleet{base: "http://" + addr, daemon: daemon}
	var health struct {
		Status string `json:"status"`
	}
	if err := waitFor(ctx, daemon, "daemon /healthz", func() error {
		return h.getJSON(ctx, f.base+"/healthz", &health)
	}); err != nil {
		f.kill()
		return nil, err
	}
	f.bootMS = float64(time.Since(start).Microseconds()) / 1000
	if !w.cluster {
		return f, nil
	}
	for i := 0; i < h.nproc; i++ {
		// Fixed names: scenario-shard ownership hashes the worker name, and
		// the default (<host>-<pid>) would move shards between rounds.
		wp, err := h.procs.start(h.bin, filepath.Join(h.outDir, fmt.Sprintf("%s_worker%d.log", tag, i)),
			"-join", f.base, "-worker-slots", "1", "-addr", "127.0.0.1:0",
			"-worker-name", fmt.Sprintf("bench-w%d", i))
		if err != nil {
			f.kill()
			return nil, err
		}
		f.workers = append(f.workers, wp)
	}
	if err := waitFor(ctx, daemon, "workers joining", func() error {
		st, err := h.clusterStatus(ctx, f)
		if err != nil {
			return err
		}
		if st.LiveWorkers < h.nproc {
			return fmt.Errorf("%d of %d workers joined", st.LiveWorkers, h.nproc)
		}
		return nil
	}); err != nil {
		f.kill()
		return nil, err
	}
	return f, nil
}

// clusterCounters is the part of GET /v1/cluster the benchmark reads.
type clusterCounters struct {
	LiveWorkers      int   `json:"liveWorkers"`
	SlicesDispatched int64 `json:"slicesDispatched"`
	SliceFailures    int64 `json:"sliceFailures"`
	PathsDone        int64 `json:"pathsDone"`
	LocalFallbacks   int64 `json:"localFallbacks"`
}

func (h *harness) clusterStatus(ctx context.Context, f *fleet) (clusterCounters, error) {
	var st clusterCounters
	err := h.getJSON(ctx, f.base+"/v1/cluster", &st)
	return st, err
}

// valuation is the numeric content of one op's result: what must repeat bit
// for bit across rounds, across the plain and the clustered daemon, and
// against the sequential reference.
type valuation struct {
	// BEL and SCR are the job totals; for a campaign the base job's BEL and
	// its own 99.5% VaR figure.
	BEL, SCR float64
	// Parts holds {bel, scr} per block of a job, {bel, delta_bel} per module
	// of a campaign.
	Parts map[string][2]float64
	// Aggregate is the campaign's standard-formula breakdown (interest,
	// market, life, BSCR). The sequential reference leaves it nil.
	Aggregate []float64
}

// fingerprint renders every number with full precision, in a fixed order.
func (v valuation) fingerprint() string {
	var sb strings.Builder
	num := func(x float64) { sb.WriteString(strconv.FormatFloat(x, 'g', -1, 64)); sb.WriteByte(' ') }
	num(v.BEL)
	num(v.SCR)
	keys := make([]string, 0, len(v.Parts))
	for k := range v.Parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		num(v.Parts[k][0])
		num(v.Parts[k][1])
	}
	for _, x := range v.Aggregate {
		num(x)
	}
	return sb.String()
}

// sane is correctness check (d): BEL finite and positive, SCR and every
// part finite and non-negative.
func (v valuation) sane() error {
	ok := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0 }
	if !ok(v.BEL) || v.BEL == 0 {
		return fmt.Errorf("BEL %v not finite and positive", v.BEL)
	}
	if !ok(v.SCR) {
		return fmt.Errorf("SCR %v not finite and non-negative", v.SCR)
	}
	if len(v.Parts) == 0 {
		return fmt.Errorf("result without blocks or modules")
	}
	for k, p := range v.Parts {
		if !ok(p[0]) || !ok(p[1]) {
			return fmt.Errorf("%s: values %v not finite and non-negative", k, p)
		}
	}
	return nil
}

// matchesReference compares the valuation with a sequential reference:
// totals and every part, bit for bit.
func (v valuation) matchesReference(ref valuation) error {
	if v.BEL != ref.BEL || v.SCR != ref.SCR {
		return fmt.Errorf("totals (%v, %v) differ from the sequential reference (%v, %v)", v.BEL, v.SCR, ref.BEL, ref.SCR)
	}
	if len(v.Parts) != len(ref.Parts) {
		return fmt.Errorf("%d parts, the sequential reference has %d", len(v.Parts), len(ref.Parts))
	}
	for k, want := range ref.Parts {
		if got, ok := v.Parts[k]; !ok || got != want {
			return fmt.Errorf("part %s = %v, the sequential reference has %v", k, got, want)
		}
	}
	return nil
}

// deployInfo is the deploy block of a job result. Seconds and dollars in it
// are SIMULATED: the cloud is virtual-time.
type deployInfo struct {
	PredictedSeconds float64 `json:"predicted_seconds"`
	ActualSeconds    float64 `json:"actual_seconds"`
	BilledUSD        float64 `json:"billed_usd"`
	Bootstrap        bool    `json:"bootstrap"`
	Fallback         bool    `json:"fallback"`
}

// jobTimes are the lifecycle stamps of GET /v1/jobs/{id}.
type jobTimes struct {
	Status      string    `json:"status"`
	Done        int       `json:"done"`
	Total       int       `json:"total"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

// opResult is one op as the client saw it.
type opResult struct {
	index     int
	latencyMS float64 // submit POST sent -> result body fully read
	ackMS     float64 // submit POST sent -> 202 read
	bytes     int64   // request + response body bytes of submit and result
	val       valuation
	deploy    *deployInfo // jobs only
	// Traced rounds only: the job lifecycle stamps (one per campaign job)
	// and the time from the last finished_at to the result body being read.
	jobs    []jobTimes
	fetchMS float64
	// deadlineMiss marks an ML-selected deploy whose simulated time busted
	// tmax_seconds; it is also a failure.
	deadlineMiss bool
	// failure, when non-empty, says why the op counts as failed.
	failure string
}

// runOp submits op i, waits for its result and parses it. Transport and
// protocol errors are recorded on the op, never returned: a failed op is a
// measurement, not a harness error.
func (h *harness) runOp(ctx context.Context, f *fleet, w workload, i int, traced bool) opResult {
	res := opResult{index: i}
	fail := func(format string, a ...any) opResult {
		res.failure = fmt.Sprintf(format, a...)
		return res
	}
	path := "/v1/jobs"
	if w.campaign {
		path = "/v1/campaigns"
	}
	start := time.Now()
	status, body, n1, err := h.call(ctx, http.MethodPost, f.base+path, w.body(h.seed, i, h.nproc).json())
	if err != nil {
		return fail("submit: %v", err)
	}
	res.ackMS = float64(time.Since(start).Microseconds()) / 1000
	if status != http.StatusAccepted {
		return fail("submit: status %d: %s", status, bytes.TrimSpace(body))
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.ID == "" {
		return fail("submit: unusable reply %q", body)
	}
	status, body, n2, err := h.call(ctx, http.MethodGet, f.base+path+"/"+ack.ID+"/result?wait=1", nil)
	readAt := time.Now()
	if err != nil {
		return fail("result: %v", err)
	}
	res.latencyMS = float64(readAt.Sub(start).Microseconds()) / 1000
	res.bytes = n1 + n2
	if status != http.StatusOK {
		return fail("result: status %d: %s", status, bytes.TrimSpace(body))
	}
	if w.campaign {
		err = res.parseCampaign(body)
	} else {
		err = res.parseJob(body)
	}
	if err != nil {
		return fail("result: %v", err)
	}
	if err := res.val.sane(); err != nil {
		return fail("result: %v", err)
	}
	if d := res.deploy; d != nil && !d.Bootstrap && d.ActualSeconds > serverTmaxSeconds {
		res.deadlineMiss = true
		return fail("deadline miss: ML-selected deploy took %.0f simulated s, tmax %.0f", d.ActualSeconds, serverTmaxSeconds)
	}
	if !traced {
		return res
	}
	if w.campaign {
		var snap struct {
			Jobs []jobTimes `json:"jobs"`
		}
		if err := h.getJSON(ctx, f.base+path+"/"+ack.ID, &snap); err != nil {
			return fail("status: %v", err)
		}
		res.jobs = snap.Jobs
	} else {
		var jt jobTimes
		if err := h.getJSON(ctx, f.base+path+"/"+ack.ID, &jt); err != nil {
			return fail("status: %v", err)
		}
		res.jobs = []jobTimes{jt}
	}
	var last time.Time
	for _, j := range res.jobs {
		if j.Status != "done" || j.Done != j.Total {
			return fail("status: job %s with %d of %d paths", j.Status, j.Done, j.Total)
		}
		if j.SubmittedAt.IsZero() || j.StartedAt.IsZero() || j.FinishedAt.IsZero() {
			return fail("status: lifecycle stamps missing")
		}
		if j.FinishedAt.After(last) {
			last = j.FinishedAt
		}
	}
	res.fetchMS = float64(readAt.Sub(last).Microseconds()) / 1000
	return res
}

func (r *opResult) parseJob(body []byte) error {
	var out struct {
		Status string  `json:"status"`
		BEL    float64 `json:"bel"`
		SCR    float64 `json:"scr"`
		Blocks map[string]struct {
			BEL float64 `json:"bel"`
			SCR float64 `json:"scr"`
		} `json:"blocks"`
		Deploy deployInfo `json:"deploy"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return err
	}
	if out.Status != "done" {
		return fmt.Errorf("job ended %q", out.Status)
	}
	r.val = valuation{BEL: out.BEL, SCR: out.SCR, Parts: make(map[string][2]float64, len(out.Blocks))}
	for id, b := range out.Blocks {
		r.val.Parts[id] = [2]float64{b.BEL, b.SCR}
	}
	r.deploy = &out.Deploy
	return nil
}

func (r *opResult) parseCampaign(body []byte) error {
	var out struct {
		Status     string  `json:"status"`
		BaseBEL    float64 `json:"base_bel"`
		BaseVaRSCR float64 `json:"base_var_scr"`
		Modules    []struct {
			Module   string  `json:"module"`
			BEL      float64 `json:"bel"`
			DeltaBEL float64 `json:"delta_bel"`
		} `json:"modules"`
		SCR struct {
			Interest float64 `json:"interest"`
			Market   float64 `json:"market"`
			Life     float64 `json:"life"`
			BSCR     float64 `json:"bscr"`
		} `json:"scr"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return err
	}
	if out.Status != "done" {
		return fmt.Errorf("campaign ended %q", out.Status)
	}
	r.val = valuation{
		BEL: out.BaseBEL, SCR: out.BaseVaRSCR,
		Parts:     make(map[string][2]float64, len(out.Modules)),
		Aggregate: []float64{out.SCR.Interest, out.SCR.Market, out.SCR.Life, out.SCR.BSCR},
	}
	for _, m := range out.Modules {
		r.val.Parts[m.Module] = [2]float64{m.BEL, m.DeltaBEL}
	}
	return nil
}

// runOps drives the given op indices through a closed loop of `clients`
// goroutines: each sends its next op only after the previous one's result
// is fully read. Results come back in index order of the input.
func (h *harness) runOps(ctx context.Context, f *fleet, w workload, indices []int, clients int, traced bool) []opResult {
	results := make([]opResult, len(indices))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(indices) || ctx.Err() != nil {
					return
				}
				results[k] = h.runOp(ctx, f, w, indices[k], traced)
			}
		}()
	}
	wg.Wait()
	return results
}

// gauges are the cumulative counters read around the measured ops.
type gauges struct {
	cpuS, workerCPUS float64 // utime+stime of daemon plus workers; the workers' part
	kb               int     // /healthz kb_samples
	cluster          clusterCounters
	billedUSD        float64 // /v1/cost lifetime total (simulated dollars)
}

func (h *harness) readGauges(ctx context.Context, f *fleet, w workload) (gauges, error) {
	var g gauges
	for _, wp := range f.workers {
		s, err := cpuSeconds(wp.pid())
		if err != nil {
			return g, err
		}
		g.workerCPUS += s
	}
	d, err := cpuSeconds(f.daemon.pid())
	if err != nil {
		return g, err
	}
	g.cpuS = d + g.workerCPUS
	var health struct {
		KBSamples int `json:"kb_samples"`
	}
	if err := h.getJSON(ctx, f.base+"/healthz", &health); err != nil {
		return g, err
	}
	g.kb = health.KBSamples
	var cost struct {
		Totals struct {
			BilledUSD float64 `json:"billed_usd"`
		} `json:"totals"`
	}
	if err := h.getJSON(ctx, f.base+"/v1/cost", &cost); err != nil {
		return g, err
	}
	g.billedUSD = cost.Totals.BilledUSD
	if w.cluster {
		if g.cluster, err = h.clusterStatus(ctx, f); err != nil {
			return g, err
		}
	}
	return g, nil
}

// roundResult is everything one round measured. Times are raw here; the
// report scales them by speedFactor.
type roundResult struct {
	setupS float64 // set-up start -> first measured op
	bootMS float64
	wallS  float64 // measured ops only, calibration gaps excluded
	ops    []opResult
	// before and after bracket the measured ops.
	before, after gauges
	peakRSSMB     float64 // daemon VmHWM at the end of the round
	// calibMS is the mean time of the calibration kernel over the round's
	// gaps: before every slice of ops and after the last.
	calibMS float64
}

// cpuS is the CPU the daemon and its workers spent on the measured ops.
func (r *roundResult) cpuS() float64 { return r.after.cpuS - r.before.cpuS }

// speedFactor converts the round's durations to reference machine speed:
// below 1 when the box ran slower than the reference while the round lasted.
func (r *roundResult) speedFactor() float64 { return referenceCalibMS / r.calibMS }

// warmupBase is the first op index of the warm-up ops, far above any
// measured index, so no warm-up op repeats a measured seed.
const warmupBase = 1 << 20

// runRound boots fresh processes, runs the warm-up ops and then the
// measured ops [first, first+ops) in slices with a calibration point in
// every gap, reads the gauges and kills everything it started.
func (h *harness) runRound(ctx context.Context, w workload, tag, kbPath string, first int, traced bool) (*roundResult, error) {
	setupStart := time.Now()
	f, err := h.boot(ctx, w, tag, kbPath)
	if err != nil {
		return nil, err
	}
	defer f.kill()
	clients := w.clients(h.nproc)
	warm := make([]int, w.warmup)
	for k := range warm {
		warm[k] = warmupBase + k
	}
	for _, op := range h.runOps(ctx, f, w, warm, clients, false) {
		if op.failure != "" {
			return nil, fmt.Errorf("bench: %s warm-up op %d: %s", w.name, op.index, op.failure)
		}
	}
	r := &roundResult{bootMS: f.bootMS}
	r.setupS = time.Since(setupStart).Seconds()
	if r.before, err = h.readGauges(ctx, f, w); err != nil {
		return nil, err
	}
	calib := []float64{calibrate(h.nproc)}
	for from := 0; from < w.ops; from += w.slice {
		slice := make([]int, min(w.slice, w.ops-from))
		for k := range slice {
			slice[k] = first + from + k
		}
		start := time.Now()
		r.ops = append(r.ops, h.runOps(ctx, f, w, slice, clients, traced)...)
		r.wallS += time.Since(start).Seconds()
		calib = append(calib, calibrate(h.nproc))
	}
	r.calibMS = mean(calib)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.after, err = h.readGauges(ctx, f, w); err != nil {
		return nil, err
	}
	if r.peakRSSMB, err = peakRSSMB(f.daemon.pid()); err != nil {
		return nil, err
	}
	return r, nil
}
