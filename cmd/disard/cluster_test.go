package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"testing"
	"time"

	"disarcloud"
)

// TestMain doubles as the worker-process entry point for the multi-process
// smoke test: re-executed with DISARD_HELPER=worker, the test binary runs a
// real cluster worker instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("DISARD_HELPER") == "worker" {
		if err := runWorker("127.0.0.1:0", os.Getenv("DISARD_COORD"), "", 2); err != nil {
			fmt.Fprintln(os.Stderr, "worker helper:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// helperLauncher spawns cluster workers by re-executing the test binary —
// the test-suite stand-in for execLauncher (whose -join flags the test
// framework's flag set would reject).
type helperLauncher struct{ coordURL string }

func (l *helperLauncher) StartWorker() (func(), error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "DISARD_HELPER=worker", "DISARD_COORD="+l.coordURL)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() { _ = cmd.Wait(); close(done) }()
	return func() {
		_ = cmd.Process.Signal(os.Interrupt)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	}, nil
}

// newClusterServer wires a coordinator-mode daemon exactly as run() does
// with -cluster: the coordinator is the deployer's block runner and its
// cluster API is mounted on the same handler.
func newClusterServer(t *testing.T, self string, peers []string) (*httptest.Server, *disarcloud.ClusterCoordinator) {
	t.Helper()
	knowledge := disarcloud.NewKnowledgeBase()
	coord := disarcloud.NewClusterCoordinator(disarcloud.ClusterConfig{
		HeartbeatEvery: 100 * time.Millisecond,
		KB:             knowledge,
		LocalWorkers:   2,
	})
	d, err := disarcloud.NewDeployer(2016,
		disarcloud.WithKnowledgeBase(knowledge), disarcloud.WithBlockRunner(coord))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := disarcloud.NewService(d, disarcloud.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(svc, d, 2016, nil, newClusterState(coord, self, peers), nil, 0))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
		coord.StopWorkers()
	})
	return srv, coord
}

// TestClusterSmoke is the multi-process smoke: a coordinator plus two real
// worker processes (re-execs of this binary), a campaign submitted over
// HTTP, completion asserted, workers torn down.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	srv, coord := newClusterServer(t, "", nil)

	l := &helperLauncher{coordURL: srv.URL}
	var stops []func()
	for i := 0; i < 2; i++ {
		stop, err := l.StartWorker()
		if err != nil {
			t.Fatal(err)
		}
		stops = append(stops, stop)
	}
	t.Cleanup(func() {
		for _, stop := range stops {
			stop()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for coord.Status().LiveWorkers < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d workers joined", coord.Status().LiveWorkers)
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp := postJSON(t, srv.URL+"/v1/campaigns", map[string]any{
		"contracts": 4, "fund_assets": 3, "outer": 24, "inner": 4, "seed": 42,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	id := decodeJSON[map[string]string](t, resp)["id"]

	res, err := http.Get(srv.URL + "/v1/campaigns/" + id + "/result?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	out := decodeJSON[map[string]any](t, res)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %v", res.StatusCode, out)
	}
	if out["status"] != "done" {
		t.Fatalf("campaign status %v, want done", out["status"])
	}
	st := coord.Status()
	if st.SlicesDispatched == 0 {
		t.Fatal("campaign completed without dispatching any slice to the workers")
	}

	// The status endpoint reflects the same run.
	cs, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	stJSON := decodeJSON[clusterStatusJSON](t, cs)
	if cs.StatusCode != http.StatusOK || stJSON.LiveWorkers != 2 {
		t.Fatalf("cluster status %d, live=%d", cs.StatusCode, stJSON.LiveWorkers)
	}
}

func TestClusterStatusRequiresClusterMode(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d without -cluster, want 404", resp.StatusCode)
	}
}

// peeredClusterServer builds a coordinator-mode server whose listener is
// bound (so its URL is known) but whose ring is wired later, once the peer's
// URL exists too.
func peeredClusterServer(t *testing.T) (srv *httptest.Server, url string, wire func(self string, peers []string)) {
	t.Helper()
	knowledge := disarcloud.NewKnowledgeBase()
	coord := disarcloud.NewClusterCoordinator(disarcloud.ClusterConfig{KB: knowledge, LocalWorkers: 1})
	d, err := disarcloud.NewDeployer(2016,
		disarcloud.WithKnowledgeBase(knowledge), disarcloud.WithBlockRunner(coord))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := disarcloud.NewService(d, disarcloud.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	srv = httptest.NewUnstartedServer(nil)
	url = "http://" + srv.Listener.Addr().String()
	wire = func(self string, peers []string) {
		srv.Config.Handler = newHandler(svc, d, 2016, nil, newClusterState(coord, self, peers), nil, 0)
		srv.Start()
	}
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, url, wire
}

// TestSubmitRoutedToRingOwner spins up two peered coordinators and checks a
// submission lands on its consistent-hash owner no matter which peer
// received it, with the forwarding recorded in the response header.
func TestSubmitRoutedToRingOwner(t *testing.T) {
	srvA, urlA, wireA := peeredClusterServer(t)
	srvB, urlB, wireB := peeredClusterServer(t)
	wireA(urlA, []string{urlB})
	wireB(urlB, []string{urlA})

	body := map[string]any{"contracts": 3, "fund_assets": 3, "outer": 6, "inner": 2, "seed": 7}
	raw, _ := json.Marshal(body)
	cs := newClusterState(nil, urlA, []string{urlB})
	owner := cs.owner(raw)
	nonOwner := srvA
	if owner == urlA {
		nonOwner = srvB
	}

	resp := postJSON(t, nonOwner.URL+"/v1/jobs", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("routed submit status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(routedHeader + "-To"); got != owner+"/v1/jobs" {
		t.Fatalf("routed-to header %q, want %q", got, owner+"/v1/jobs")
	}
	id := decodeJSON[map[string]string](t, resp)["id"]

	// The job must live on the owner, not on the receiver.
	ownerResp, err := http.Get(owner + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	ownerResp.Body.Close()
	if ownerResp.StatusCode != http.StatusOK {
		t.Fatalf("job missing on ring owner: status %d", ownerResp.StatusCode)
	}
	otherURL := urlA
	if owner == urlA {
		otherURL = urlB
	}
	otherResp, err := http.Get(otherURL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	otherResp.Body.Close()
	if otherResp.StatusCode != http.StatusNotFound {
		t.Fatalf("job present on non-owner: status %d", otherResp.StatusCode)
	}
}

// TestGossipedSamplesAreLearned: node A measures an architecture node B has
// never deployed on; after ONE gossip exchange B predicts it exactly as a
// deployer freshly trained on the merged knowledge base does. Before
// gossipOnce the merge only grew B's KB and its predictor never saw the
// samples.
func TestGossipedSamplesAreLearned(t *testing.T) {
	const arch = "m4.10xlarge"
	ctx := t.Context()
	type node struct {
		kb    *disarcloud.KnowledgeBase
		coord *disarcloud.ClusterCoordinator
		d     *disarcloud.Deployer
		url   string
	}
	newNode := func() node {
		knowledge := disarcloud.NewKnowledgeBase()
		coord := disarcloud.NewClusterCoordinator(disarcloud.ClusterConfig{KB: knowledge})
		d, err := disarcloud.NewDeployer(2016, disarcloud.WithKnowledgeBase(knowledge))
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		coord.Routes(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return node{knowledge, coord, d, srv.URL}
	}
	a, b := newNode(), newNode()
	f := disarcloud.CharacteristicParams{
		RepresentativeContracts: 15, MaxHorizon: 25, FundAssets: 8,
		RiskFactors: 3, OuterPaths: 1000, InnerPaths: 50,
	}
	for i := 0; i < 16; i++ {
		g := f
		g.RepresentativeContracts += 5 * i
		if _, err := a.d.DeployManual(ctx, arch, 1+i%6, g); err != nil {
			t.Fatal(err)
		}
	}
	if b.d.Predictor().Trained(arch) {
		t.Fatalf("node B has a %s suite before any exchange", arch)
	}
	added, err := gossipOnce(ctx, b.coord, b.d, []string{a.url})
	if err != nil || added != 16 {
		t.Fatalf("gossip added %d samples (%v), want 16", added, err)
	}
	fresh, err := disarcloud.NewDeployer(2016, disarcloud.WithKnowledgeBase(b.kb))
	if err != nil {
		t.Fatal(err)
	}
	for nodes := 1; nodes <= 6; nodes++ {
		got, err := b.d.Predictor().PredictPerModel(arch, nodes, f)
		if err != nil {
			t.Fatalf("node B after the exchange: %v", err)
		}
		want, err := fresh.Predictor().PredictPerModel(arch, nodes, f)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range want {
			if got[name] != v {
				t.Fatalf("%s x%d %s: node B predicts %v, a fresh retrain on the merged KB %v", arch, nodes, name, got[name], v)
			}
		}
	}
	// A converged exchange adds nothing and takes no learn step.
	gens := b.d.Predictor().Generations()
	if added, err := gossipOnce(ctx, b.coord, b.d, []string{a.url}); err != nil || added != 0 {
		t.Fatalf("converged gossip added %d samples (%v)", added, err)
	}
	if got := b.d.Predictor().Generations(); got != gens {
		t.Fatalf("converged gossip took %d generations", got-gens)
	}
}
