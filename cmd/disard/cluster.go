package main

// Cluster wiring for the daemon: the worker process mode (-join), the
// self-exec launcher behind elastic process scaling, and the
// multi-coordinator state (consistent-hash job routing + KB gossip).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"disarcloud"
)

// routedHeader marks a submission already forwarded by its ring owner's
// peer, so routing never loops.
const routedHeader = "X-Disard-Routed"

// runWorker is the -join process mode: a pure computing unit that serves
// the worker API and registers with the coordinator. It blocks until
// interrupted.
func runWorker(addr, coordinatorURL, name string, slots int) error {
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := disarcloud.NewClusterWorker(name, slots)
	if err := w.Start(addr); err != nil {
		return err
	}
	defer w.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := joinWithRetry(ctx, w, coordinatorURL); err != nil {
		return err
	}
	log.Printf("worker %s serving on %s, joined %s (%d slots)", name, w.Addr(), coordinatorURL, slots)
	<-ctx.Done()
	return nil
}

// joinWithRetry registers with the coordinator, retrying with backoff — a
// launcher-spawned worker typically races the coordinator's own listener
// at boot.
func joinWithRetry(ctx context.Context, w *disarcloud.ClusterWorker, url string) error {
	var err error
	for wait := 100 * time.Millisecond; wait <= 5*time.Second; wait *= 2 {
		if err = w.Join(ctx, url); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
	return fmt.Errorf("join %s: %w", url, err)
}

// execLauncher starts worker processes by re-executing this binary with
// -join — the hook elastic process scaling pulls on.
type execLauncher struct {
	joinURL string
	slots   int
}

func (l *execLauncher) StartWorker() (func(), error) {
	cmd := exec.Command(os.Args[0],
		"-join", l.joinURL,
		"-worker-slots", strconv.Itoa(l.slots),
		"-addr", "127.0.0.1:0")
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() { _ = cmd.Wait(); close(done) }()
	stop := func() {
		_ = cmd.Process.Signal(os.Interrupt)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	}
	return stop, nil
}

// selfJoinURL derives the URL launcher-spawned workers join from the
// coordinator's listen address (":8080" listens on every interface, so the
// loopback reaches it).
func selfJoinURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// clusterState is the server's cluster-mode attachment: the coordinator
// plus, when peers are configured, the consistent-hash ring submissions are
// routed on.
type clusterState struct {
	coord  *disarcloud.ClusterCoordinator
	self   string
	peers  []string
	ring   *disarcloud.ClusterRing
	client *http.Client
}

// newClusterState builds the attachment. Routing activates only when both a
// self URL and at least one distinct peer are configured.
func newClusterState(coord *disarcloud.ClusterCoordinator, self string, peers []string) *clusterState {
	cs := &clusterState{
		coord:  coord,
		self:   strings.TrimRight(strings.TrimSpace(self), "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	for _, p := range peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" && p != cs.self {
			cs.peers = append(cs.peers, p)
		}
	}
	if cs.self != "" && len(cs.peers) > 0 {
		cs.ring = disarcloud.NewClusterRing(append(append([]string{}, cs.peers...), cs.self), 0)
	}
	return cs
}

// owner returns the coordinator a submission belongs to. The key is a hash
// of the request body, so identical submissions always land on the same
// coordinator regardless of which one received them.
func (cs *clusterState) owner(body []byte) string {
	if cs.ring == nil {
		return ""
	}
	h := fnv.New64a()
	_, _ = h.Write(body)
	return cs.ring.Owner(fmt.Sprintf("job/%016x", h.Sum64()))
}

// forward re-submits the body to the owning coordinator and relays its
// reply. It reports false when the owner is unreachable, in which case the
// caller handles the submission locally — availability over strict
// sharding.
func (cs *clusterState) forward(w http.ResponseWriter, url string, body []byte) bool {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(routedHeader, "1")
	resp, err := cs.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(routedHeader+"-To", url)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, io.LimitReader(resp.Body, 1<<20))
	return true
}

// readRouted reads a submit body and, in a multi-coordinator cluster,
// forwards it to its consistent-hash owner when that is a peer. It returns
// handle=false when the response has already been written (bad body or
// forwarded reply).
func (s *server) readRouted(w http.ResponseWriter, r *http.Request, path string) (body []byte, handle bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
		return nil, false
	}
	cs := s.cluster
	if cs == nil || cs.ring == nil || r.Header.Get(routedHeader) != "" {
		return body, true
	}
	owner := cs.owner(body)
	if owner == "" || owner == cs.self {
		return body, true
	}
	if cs.forward(w, owner+path, body) {
		return nil, false
	}
	return body, true
}

// clusterStatusJSON is the GET /v1/cluster reply.
type clusterStatusJSON struct {
	disarcloud.ClusterStatus
	Self  string   `json:"self,omitempty"`
	Peers []string `json:"peers,omitempty"`
}

func (s *server) clusterStatus(w http.ResponseWriter, _ *http.Request) {
	cs := s.cluster
	if cs == nil || cs.coord == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("not running in cluster mode (-cluster)"))
		return
	}
	writeJSON(w, http.StatusOK, clusterStatusJSON{
		ClusterStatus: cs.coord.Status(),
		Self:          cs.self,
		Peers:         cs.peers,
	})
}

// gossipKB periodically merges every peer coordinator's knowledge base into
// the local one, so each node's predictor trains on the whole cluster's
// measurements.
func gossipKB(ctx context.Context, coord *disarcloud.ClusterCoordinator, d *disarcloud.Deployer, peers []string, every time.Duration) {
	if len(peers) == 0 || every <= 0 {
		return
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			added, err := gossipOnce(ctx, coord, d, peers)
			if added > 0 {
				log.Printf("kb gossip: merged %d samples from %d peers", added, len(peers))
			}
			if err != nil && ctx.Err() == nil {
				log.Printf("kb gossip: %v", err)
			}
		}
	}
}

// gossipOnce is one exchange: merge the peers' samples, then learn them. The
// merge alone only grows the knowledge base; an architecture's suite is
// otherwise rebuilt when a local deploy next records on it, and a node that
// never picks an architecture would predict it from its boot-time samples
// for ever.
func gossipOnce(ctx context.Context, coord *disarcloud.ClusterCoordinator, d *disarcloud.Deployer, peers []string) (added int, err error) {
	added, err = coord.SyncKB(ctx, peers)
	if added > 0 {
		err = errors.Join(err, d.Relearn())
	}
	return added, err
}
