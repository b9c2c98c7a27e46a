package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"disarcloud/internal/alm"
	"disarcloud/internal/stochastic"
)

// maxRequestBytes bounds every request body a cluster node decodes — wire
// data is never trusted, including its size.
const maxRequestBytes = 64 << 20

// Worker is one DiEng computing unit as a network service: it executes
// outer-path slices shipped by a coordinator, serves its owned scenario
// shards to peers, and keeps its registration alive with heartbeats.
type Worker struct {
	// Name is the worker's stable identity on the scenario ring.
	Name string
	// Slots is the advertised slice concurrency.
	Slots int

	cache  scenarioCache
	client *http.Client

	srv  *http.Server
	addr atomic.Value // string; reachable base address once serving

	mu       sync.Mutex
	hbCancel context.CancelFunc
	closed   bool
}

// NewWorker builds a worker node. Slots below 1 become 1.
func NewWorker(name string, slots int) *Worker {
	if slots < 1 {
		slots = 1
	}
	return &Worker{
		Name:   name,
		Slots:  slots,
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

// Addr returns the worker's reachable base address ("" before Start).
func (w *Worker) Addr() string {
	if v := w.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves the worker API. It
// returns once the listener is bound; serving continues in the background.
func (w *Worker) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: worker listen: %w", err)
	}
	w.addr.Store(ln.Addr().String())
	w.srv = &http.Server{Handler: w.handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := w.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The listener died outside Close — nothing to do but stop.
			_ = err
		}
	}()
	return nil
}

// Join registers the worker with the coordinator and starts the heartbeat
// loop. Start must have been called first (the coordinator needs a reachable
// address).
func (w *Worker) Join(ctx context.Context, coordinatorURL string) error {
	addr := w.Addr()
	if addr == "" {
		return errors.New("cluster: worker must Start before Join")
	}
	var resp joinResponse
	err := postJSON(ctx, w.client, coordinatorURL+"/v1/join",
		joinRequest{Name: w.Name, Addr: addr, Slots: w.Slots}, &resp)
	if err != nil {
		return fmt.Errorf("cluster: join %s: %w", coordinatorURL, err)
	}
	every := time.Duration(resp.HeartbeatSeconds * float64(time.Second))
	if every <= 0 {
		every = time.Second
	}
	hbCtx, cancel := context.WithCancel(ctx)
	w.mu.Lock()
	if w.hbCancel != nil {
		w.hbCancel()
	}
	w.hbCancel = cancel
	w.mu.Unlock()
	go w.heartbeatLoop(hbCtx, coordinatorURL, resp.ID, every)
	return nil
}

// heartbeatLoop beats until the context dies. A missed beat is retried at
// the next tick; the coordinator's dead-after window absorbs transient
// failures.
func (w *Worker) heartbeatLoop(ctx context.Context, coordinatorURL, id string, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = postJSON(ctx, w.client, coordinatorURL+"/v1/heartbeat", heartbeatRequest{ID: id}, nil)
		}
	}
}

// Close stops the heartbeat and the server. Idempotent.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	if w.hbCancel != nil {
		w.hbCancel()
	}
	w.mu.Unlock()
	w.client.CloseIdleConnections() // a peer's Shutdown would wait out a spare dial of our fetches
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = w.srv.Shutdown(ctx)
	}
}

// handler mounts the worker API.
func (w *Worker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/execute", w.handleExecute)
	mux.HandleFunc("/v1/scenario", w.handleScenario)
	mux.HandleFunc("/v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ok", "name": w.Name})
	})
	return mux
}

// handleExecute runs one shipped slice: the outer range of every block of
// the request, in one walk. The slice's pace share is held CONCURRENTLY with
// the computation: the timer starts before the valuation and the handler
// waits out the remainder afterwards, so the reported wall-clock occupancy
// is max(compute, pace) exactly like a real remote cluster whose execution
// time the pace emulates.
func (w *Worker) handleExecute(rw http.ResponseWriter, r *http.Request) {
	var req executeRequest
	if !decodeInto(rw, r, &req) {
		return
	}
	blocks, err := req.decodeBlocks()
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	// One walk means one scenario recipe: resolve it once for the group.
	src, err := w.scenarios(r.Context(), blocks[0].ScenarioRef, req.ScenarioPeers, req.From, req.To)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	for _, b := range blocks {
		b.Scenarios = src
	}
	job, err := alm.NewJobValuer(blocks, req.Seed)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}

	var pace <-chan time.Time
	if req.PaceSeconds > 0 {
		timer := time.NewTimer(time.Duration(req.PaceSeconds * float64(time.Second)))
		defer timer.Stop()
		pace = timer.C
	}
	y1, err := job.ValueRange(r.Context(), req.From, req.To, nil)
	if err != nil {
		writeError(rw, http.StatusInternalServerError, err)
		return
	}
	if pace != nil {
		select {
		case <-r.Context().Done():
			writeError(rw, http.StatusInternalServerError, r.Context().Err())
			return
		case <-pace:
		}
	}
	writeJSON(rw, http.StatusOK, executeResponse{Y1: y1})
}

// handleScenario serves outer paths of a ref's base set to a peer.
func (w *Worker) handleScenario(rw http.ResponseWriter, r *http.Request) {
	var req scenarioRequest
	if !decodeInto(rw, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	base, err := w.cache.base(&req.Ref)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	resp := scenarioResponse{Scenarios: make([]stochastic.ScenarioWire, len(req.Indices))}
	for k, i := range req.Indices {
		resp.Scenarios[k] = base.src.Outer(i).Wire()
	}
	writeJSON(rw, http.StatusOK, resp)
}

// postJSON posts a JSON body and decodes a JSON reply (out may be nil). A
// non-2xx status is returned as an error carrying the server's message.
func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er errorResponse
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &er) == nil && er.Error != "" {
			return fmt.Errorf("cluster: %s: %s (status %d)", url, er.Error, resp.StatusCode)
		}
		return fmt.Errorf("cluster: %s: status %d", url, resp.StatusCode)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxRequestBytes)).Decode(out)
}

// decodeInto decodes a POSTed JSON body, writing the HTTP error itself and
// returning false when the request is unusable.
func decodeInto(rw http.ResponseWriter, r *http.Request, out any) bool {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, errors.New("cluster: POST required"))
		return false
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBytes))
	if err := dec.Decode(out); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("cluster: decode request: %w", err))
		return false
	}
	return true
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeError(rw http.ResponseWriter, status int, err error) {
	writeJSON(rw, status, errorResponse{Error: err.Error()})
}
