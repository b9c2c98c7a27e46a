//go:build unix

package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"disarcloud/internal/alm"
	"disarcloud/internal/cluster"
	"disarcloud/internal/core"
)

// The cluster probe runs one campaign op on an in-process cluster wired as
// internal/experiments/cluster.go wires it — a cluster.Coordinator behind a
// loopback listener and nproc single-slot cluster.Workers — and watches its
// traffic from outside. Coordinator and workers both build their
// http.Clients without a Transport, so every request they make goes through
// http.DefaultTransport; wrapping that is the whole hook. A later change
// that moves them onto a private transport zeroes these columns, which the
// guard test catches.

// wireStats is what the counting transport saw on one URL path.
type wireStats struct {
	requests int
	bytesOut int64     // request bodies
	bytesIn  int64     // response bodies
	rttMS    []float64 // RoundTrip start -> response body closed
}

// countingTransport wraps a RoundTripper, counts body bytes per URL path
// and records a span per /v1/execute and /v1/scenario exchange.
type countingTransport struct {
	base http.RoundTripper
	tr   *tracer
	op   int

	mu     sync.Mutex
	byPath map[string]*wireStats
	rootID int // span the scenario fetches hang under
}

// runBlocksSpanKey carries the cluster.run_blocks span id down the request
// context, so an execute exchange knows its parent.
type runBlocksSpanKey struct{}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	parent := c.rootID
	if id, ok := req.Context().Value(runBlocksSpanKey{}).(int); ok {
		parent = id
	}
	spanID := 0
	switch path {
	case "/v1/execute":
		spanID = c.tr.begin("cluster.execute", c.op, parent, false)
	case "/v1/scenario":
		spanID = c.tr.begin("cluster.scenario_fetch", c.op, parent, false)
	}
	start := time.Now()
	out := max(req.ContentLength, 0)
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		if spanID != 0 {
			c.tr.end(spanID)
		}
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(in int64) {
		if spanID != 0 {
			c.tr.end(spanID)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		st := c.byPath[path]
		if st == nil {
			st = &wireStats{}
			c.byPath[path] = st
		}
		st.requests++
		st.bytesOut += out
		st.bytesIn += in
		st.rttMS = append(st.rttMS, ms(time.Since(start).Nanoseconds()))
	}}
	return resp, nil
}

func (c *countingTransport) stats(path string) wireStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.byPath[path]; st != nil {
		return *st
	}
	return wireStats{}
}

// countingBody counts the response bytes and reports once on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// spanRunner wraps the coordinator's BlockRunner side with a span.
type spanRunner struct {
	inner  core.BlockRunner
	tr     *tracer
	op     int
	parent int
}

func (s spanRunner) RunBlocks(ctx context.Context, req core.BlockRunRequest) (map[string]*alm.Result, error) {
	id := s.tr.begin("cluster.run_blocks", s.op, s.parent, false)
	defer s.tr.end(id)
	return s.inner.RunBlocks(context.WithValue(ctx, runBlocksSpanKey{}, id), req)
}

// inProcessCluster is a coordinator plus workers on loopback.
type inProcessCluster struct {
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	srv     *httptest.Server
}

func startInProcessCluster(ctx context.Context, n int) (*inProcessCluster, error) {
	// Default heartbeat (1 s, dead after 3 s): the probe saturates every
	// core, and a worker must not be declared lost over a late beat.
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{})
	mux := http.NewServeMux()
	coord.Routes(mux)
	c := &inProcessCluster{coord: coord, srv: httptest.NewServer(mux)}
	for i := 0; i < n; i++ {
		w := cluster.NewWorker(fmt.Sprintf("bench-w%d", i), 1)
		if err := w.Start("127.0.0.1:0"); err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, w)
		if err := w.Join(ctx, c.srv.URL); err != nil {
			c.close()
			return nil, err
		}
	}
	if live := coord.Status().LiveWorkers; live != n {
		c.close()
		return nil, fmt.Errorf("bench: %d of %d in-process workers live after join", live, n)
	}
	return c, nil
}

func (c *inProcessCluster) close() {
	for _, w := range c.workers {
		w.Close()
	}
	c.srv.Close()
}

// probeCluster runs the op's campaign through an in-process cluster with
// the counting transport installed and returns its valuation.
func (r *replayer) probeCluster(ctx context.Context, b opBody, op int) (valuation, error) {
	root := r.tr.begin("cluster.campaign", op, 0, false)
	defer r.tr.end(root)
	ct := &countingTransport{base: http.DefaultTransport, tr: r.tr, op: op, byPath: map[string]*wireStats{}, rootID: root}
	http.DefaultTransport = ct
	defer func() { http.DefaultTransport = ct.base }()

	cl, err := startInProcessCluster(ctx, r.nproc)
	if err != nil {
		return valuation{}, err
	}
	defer cl.close()
	d, err := core.NewDeployer(fixtureSeed, core.WithBlockRunner(spanRunner{inner: cl.coord, tr: r.tr, op: op, parent: root}))
	if err != nil {
		return valuation{}, err
	}
	svc, err := core.NewService(d, core.WithWorkers(r.nproc))
	if err != nil {
		return valuation{}, err
	}
	defer svc.Close()
	spec, err := b.jobSpec()
	if err != nil {
		return valuation{}, err
	}
	id, err := svc.SubmitCampaign(ctx, core.CampaignSpec{Base: spec})
	if err != nil {
		return valuation{}, err
	}
	rep, err := svc.CampaignResult(ctx, id)
	if err != nil {
		return valuation{}, err
	}
	v := valuation{BEL: rep.BaseBEL, SCR: rep.BaseVaRSCR, Parts: make(map[string][2]float64, len(rep.Modules))}
	for _, m := range rep.Modules {
		v.Parts[string(m.Module)] = [2]float64{m.BEL, m.DeltaBEL}
	}
	if st := cl.coord.Status(); st.SliceFailures != 0 || st.LocalFallbacks != 0 {
		return v, fmt.Errorf("bench: in-process cluster had %d slice failures and %d local fallbacks", st.SliceFailures, st.LocalFallbacks)
	}

	exec, scen := ct.stats("/v1/execute"), ct.stats("/v1/scenario")
	if exec.requests == 0 {
		return v, fmt.Errorf("bench: the counting transport saw no /v1/execute exchange; the cluster no longer uses http.DefaultTransport")
	}
	r.vals.add("cluster.execute_rtt_ms_p50", percentile(exec.rttMS, 50))
	r.vals.add("cluster.scenario_fetch_ms_p50", percentile(scen.rttMS, 50))
	// Exact counts: a function of the bodies alone.
	r.counts["cluster.bytes_out_per_op"] = float64(exec.bytesOut)
	r.counts["cluster.bytes_in_per_op"] = float64(exec.bytesIn)
	r.counts["cluster.scenario_fetches_per_op"] = float64(scen.requests)
	r.counts["cluster.scenario_bytes_per_op"] = float64(scen.bytesOut + scen.bytesIn)
	return v, nil
}
