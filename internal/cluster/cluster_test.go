package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/alm"
	"disarcloud/internal/core"
	"disarcloud/internal/eeb"
	"disarcloud/internal/finmath"
	"disarcloud/internal/fund"
	"disarcloud/internal/grid"
	"disarcloud/internal/kb"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
)

func testMarket(horizon int) stochastic.Config {
	return stochastic.Config{
		Horizon:      horizon,
		StepsPerYear: 1,
		Rate: stochastic.VasicekParams{
			R0: 0.02, Speed: 0.3, MeanP: 0.03, MeanQ: 0.025, Sigma: 0.008,
		},
		Equities: []stochastic.GBMParams{{S0: 100, Mu: 0.06, Sigma: 0.18}},
		Credit:   stochastic.CIRParams{L0: 0.008, Speed: 0.5, Mean: 0.012, Sigma: 0.03},
	}
}

func testBlocks(t testing.TB, ref *stochastic.Ref, src stochastic.Source) []*eeb.Block {
	t.Helper()
	market := testMarket(15)
	contracts := []policy.Contract{
		{Kind: policy.Endowment, Age: 45, Gender: actuarial.Male, Term: 10,
			InsuredSum: 10000, Beta: 0.8, TechnicalRate: 0.02, Count: 50},
		{Kind: policy.Annuity, Age: 60, Gender: actuarial.Female, Term: 15,
			InsuredSum: 1500, Beta: 0.8, TechnicalRate: 0.0, Count: 25},
		{Kind: policy.PureEndowment, Age: 35, Gender: actuarial.Male, Term: 12,
			InsuredSum: 15000, Beta: 0.9, TechnicalRate: 0.01, Count: 40},
		{Kind: policy.TermInsurance, Age: 40, Gender: actuarial.Male, Term: 8,
			InsuredSum: 80000, Beta: 0.8, TechnicalRate: 0.0, Count: 60},
	}
	p := &policy.Portfolio{Name: "cluster-test", Contracts: contracts}
	blocks, err := eeb.SplitPortfolio(p, fund.TypicalItalianFund(4, market), market,
		eeb.SplitSpec{MaxContractsPerBlock: 2, Outer: 30, Inner: 4, ScenarioRef: ref, Scenarios: src})
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

// jobBlocks is a whole simulation's split: the 60-contract savings-heavy
// book at core.RunSimulation's 25 contracts per type-B block — three blocks
// that scatter as one walk.
func jobBlocks(t *testing.T) []*eeb.Block {
	t.Helper()
	p, err := policy.Generate(finmath.NewRNG(5), policy.ItalianCompanySpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	market := testMarket(p.MaxTerm())
	blocks, err := eeb.SplitPortfolio(p, fund.TypicalItalianFund(5, market), market,
		eeb.SplitSpec{MaxContractsPerBlock: 25, Outer: 30, Inner: 2})
	if err != nil {
		t.Fatal(err)
	}
	if groups := eeb.GroupWalks(blocks); len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("60-contract job grouped into %d walks", len(groups))
	}
	return blocks
}

// scenarioCounter counts the /v1/scenario exchanges a worker's client makes.
type scenarioCounter struct{ n atomic.Int64 }

func (c *scenarioCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/scenario" {
		c.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// scenarioExchanges reads the counter startWorker put on the worker's client.
func scenarioExchanges(w *Worker) int64 {
	return w.client.Transport.(*scenarioCounter).n.Load()
}

// startWorker brings up one serving worker whose scenario exchanges are
// counted.
func startWorker(t testing.TB, name string, slots int) *Worker {
	t.Helper()
	w := NewWorker(name, slots)
	w.client.Transport = &scenarioCounter{}
	if err := w.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// startCluster brings up a coordinator (on a real TCP test server) and n
// workers that join it, and waits until all are registered.
func startCluster(t testing.TB, n int, cfg CoordinatorConfig) (*Coordinator, []*Worker) {
	t.Helper()
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 50 * time.Millisecond
	}
	coord := NewCoordinator(cfg)
	mux := http.NewServeMux()
	coord.Routes(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	workers := make([]*Worker, n)
	for i := range workers {
		workers[i] = startWorker(t, fmt.Sprintf("w%d", i), 2)
		if err := workers[i].Join(context.Background(), srv.URL); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(coord.live()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered", len(coord.live()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return coord, workers
}

func assertSameResults(t *testing.T, got, want map[string]*alm.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("missing block %s", id)
		}
		if g.BEL != w.BEL || g.SCR != w.SCR || g.StdErr != w.StdErr {
			t.Fatalf("block %s differs: BEL %v vs %v, SCR %v vs %v",
				id, g.BEL, w.BEL, g.SCR, w.SCR)
		}
	}
}

func TestClusterMatchesSequentialBitForBit(t *testing.T) {
	blocks := testBlocks(t, nil, nil)
	want, err := grid.RunSequential(context.Background(), blocks, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		coord, _ := startCluster(t, n, CoordinatorConfig{})
		got, err := coord.RunBlocks(context.Background(), core.BlockRunRequest{Blocks: blocks, Seed: 42})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		assertSameResults(t, got, want)
	}
}

func TestClusterProgressCountsEveryPathOnce(t *testing.T) {
	blocks := jobBlocks(t)
	coord, _ := startCluster(t, 2, CoordinatorConfig{})
	perBlock := map[string]int{}
	totals := map[string]int{}
	_, err := coord.RunBlocks(context.Background(), core.BlockRunRequest{
		Blocks: blocks,
		Seed:   7,
		OnProgress: func(ev grid.Progress) {
			perBlock[ev.BlockID]++
			totals[ev.BlockID] = ev.Total
			if ev.Done > ev.Total {
				t.Errorf("block %s: Done %d exceeds Total %d", ev.BlockID, ev.Done, ev.Total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(perBlock) != 3 {
		t.Fatalf("progress events for %d blocks of the three-block job", len(perBlock))
	}
	for id, n := range perBlock {
		if n != totals[id] {
			t.Errorf("block %s: %d progress events for %d paths", id, n, totals[id])
		}
	}
	// A path counts once per block; a slice carries all three blocks.
	st := coord.Status()
	if st.PathsDone != 90 || st.SlicesDispatched != 4 {
		t.Errorf("%d paths over %d slices, want 90 over 4 (2 workers x 2 slots)", st.PathsDone, st.SlicesDispatched)
	}
}

func TestWorkerKillMidRunIsBitIdentical(t *testing.T) {
	blocks := jobBlocks(t)
	want, err := grid.RunSequential(context.Background(), blocks, 42)
	if err != nil {
		t.Fatal(err)
	}
	coord, workers := startCluster(t, 3, CoordinatorConfig{})
	// The job scatters as one wave of six slices, each held open 100 ms by
	// its pace share. Cutting one worker's connections 30 ms in loses its
	// two job slices mid-flight (or refuses them, on a box slow enough to
	// dispatch later than that): both ranges must be re-sliced onto the
	// survivors, for all three blocks at once.
	killed := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		_ = workers[1].srv.Close()
		close(killed)
	}()
	got, err := coord.RunBlocks(context.Background(), core.BlockRunRequest{
		Blocks: blocks, Seed: 42, PaceSeconds: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	assertSameResults(t, got, want)
	st := coord.Status()
	if st.SliceFailures == 0 || st.Reslices == 0 {
		t.Fatalf("kill lost no slice (%d failures, %d re-slices): the re-sliced job range went untested",
			st.SliceFailures, st.Reslices)
	}
	if st.PathsDone != 90 {
		t.Fatalf("%d paths counted, want 90: a re-sliced range must count once per block", st.PathsDone)
	}
}

func TestAllWorkersLostFallsBackLocally(t *testing.T) {
	blocks := testBlocks(t, nil, nil)
	want, err := grid.RunSequential(context.Background(), blocks, 42)
	if err != nil {
		t.Fatal(err)
	}
	coord, workers := startCluster(t, 1, CoordinatorConfig{})
	workers[0].Close()
	got, err := coord.RunBlocks(context.Background(), core.BlockRunRequest{Blocks: blocks, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
}

func TestNoWorkersRunsLocally(t *testing.T) {
	blocks := testBlocks(t, nil, nil)
	want, err := grid.RunSequential(context.Background(), blocks, 42)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{LocalWorkers: 2})
	got, err := coord.RunBlocks(context.Background(), core.BlockRunRequest{Blocks: blocks, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	if coord.Status().LocalFallbacks == 0 {
		t.Fatal("local fallback not recorded")
	}
}

func TestLiveSourceWithoutRefPinsLocally(t *testing.T) {
	market := testMarket(15)
	gen, err := stochastic.NewGenerator(market)
	if err != nil {
		t.Fatal(err)
	}
	set := stochastic.NewSet(gen, 42)
	blocks := testBlocks(t, nil, set)
	want, err := grid.RunSequential(context.Background(), blocks, 42)
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := startCluster(t, 2, CoordinatorConfig{})
	got, err := coord.RunBlocks(context.Background(), core.BlockRunRequest{Blocks: blocks, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	st := coord.Status()
	if st.SlicesDispatched != 0 {
		t.Fatalf("%d slices shipped for an unshippable job", st.SlicesDispatched)
	}
	if st.LocalFallbacks == 0 {
		t.Fatal("local fallback not recorded")
	}
}

func TestScenarioRefJobMatchesLiveSourceJob(t *testing.T) {
	market := testMarket(15)
	gen, err := stochastic.NewGenerator(market)
	if err != nil {
		t.Fatal(err)
	}
	// The reference: an in-process run over a live shared set.
	liveBlocks := testBlocks(t, nil, stochastic.NewSet(gen, 99))
	want, err := grid.RunSequential(context.Background(), liveBlocks, 42)
	if err != nil {
		t.Fatal(err)
	}
	// The cluster run: same recipe, shipped as a ref and rebuilt per node.
	ref := &stochastic.Ref{Market: market, Seed: 99, Memoize: true}
	refBlocks := testBlocks(t, ref, stochastic.NewSet(gen, 99))
	coord, _ := startCluster(t, 2, CoordinatorConfig{})
	got, err := coord.RunBlocks(context.Background(), core.BlockRunRequest{Blocks: refBlocks, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
}

func TestRingOwnershipStableUnderGrowth(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1"}
	r3 := NewRing(nodes, 0)
	r4 := NewRing(append(nodes, "d:1"), 0)
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("set-abc/%d", i)
		if r3.Owner(k) != r4.Owner(k) {
			moved++
		}
	}
	// Adding one node to three should move roughly a quarter of the keys;
	// anything above half means the hashing is not consistent.
	if moved > keys/2 {
		t.Fatalf("%d of %d keys moved on one join", moved, keys)
	}
	if r3.Owner("x") == "" {
		t.Fatal("ring misbuilt")
	}
	if NewRing(nil, 0).Owner("x") != "" {
		t.Fatal("empty ring must own nothing")
	}
}

func TestKBSyncConvergesPeers(t *testing.T) {
	mkSample := func(arch string, nodes int, secs float64) kb.Sample {
		return kb.Sample{
			Architecture: arch, Nodes: nodes,
			Params: eeb.CharacteristicParams{
				RepresentativeContracts: 5, MaxHorizon: 10, FundAssets: 3,
				RiskFactors: 3, OuterPaths: 50, InnerPaths: 5,
			},
			Seconds: secs,
		}
	}
	kbA, kbB := kb.New(), kb.New()
	for _, s := range []kb.Sample{mkSample("c4", 2, 11), mkSample("g8", 4, 5)} {
		if err := kbA.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []kb.Sample{mkSample("m4", 1, 29), mkSample("c4", 2, 11)} {
		if err := kbB.Add(s); err != nil {
			t.Fatal(err)
		}
	}

	serve := func(c *Coordinator) *httptest.Server {
		mux := http.NewServeMux()
		c.Routes(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	coordA := NewCoordinator(CoordinatorConfig{KB: kbA})
	coordB := NewCoordinator(CoordinatorConfig{KB: kbB})
	srvA, srvB := serve(coordA), serve(coordB)

	addedA, err := coordA.SyncKB(context.Background(), []string{srvB.URL})
	if err != nil {
		t.Fatal(err)
	}
	addedB, err := coordB.SyncKB(context.Background(), []string{srvA.URL})
	if err != nil {
		t.Fatal(err)
	}
	if addedA != 1 || addedB != 1 {
		t.Fatalf("added %d/%d, want 1/1", addedA, addedB)
	}
	if kbA.Len() != 3 || kbB.Len() != 3 {
		t.Fatalf("sizes %d/%d after sync, want 3/3 (union of both)", kbA.Len(), kbB.Len())
	}
	// A second exchange must be a no-op: the gossip has converged.
	if n, _ := coordA.SyncKB(context.Background(), []string{srvB.URL}); n != 0 {
		t.Fatalf("converged sync added %d", n)
	}
	if coordA.Status().KBSamplesMerged != 1 {
		t.Fatalf("merge counter %d, want 1", coordA.Status().KBSamplesMerged)
	}
}

type fakeLauncher struct {
	started atomic.Int64
	stopped atomic.Int64
}

func (f *fakeLauncher) StartWorker() (func(), error) {
	f.started.Add(1)
	return func() { f.stopped.Add(1) }, nil
}

func TestScaleToManagesProcesses(t *testing.T) {
	l := &fakeLauncher{}
	coord := NewCoordinator(CoordinatorConfig{Launcher: l})
	coord.ScaleTo(3)
	if l.started.Load() != 3 {
		t.Fatalf("started %d, want 3", l.started.Load())
	}
	coord.ScaleTo(1)
	if l.stopped.Load() != 2 {
		t.Fatalf("stopped %d, want 2", l.stopped.Load())
	}
	if coord.Status().ManagedProcesses != 1 {
		t.Fatalf("managed %d, want 1", coord.Status().ManagedProcesses)
	}
	coord.StopWorkers()
	if l.stopped.Load() != 3 {
		t.Fatalf("stopped %d after StopWorkers, want 3", l.stopped.Load())
	}
	// No launcher: a no-op, never a panic.
	NewCoordinator(CoordinatorConfig{}).ScaleTo(5)
}

func TestStatusGuardsEmptyTelemetry(t *testing.T) {
	st := NewCoordinator(CoordinatorConfig{}).Status()
	if st.AvgPathsPerSlice != 0 || st.SliceFailureRate != 0 {
		t.Fatalf("derived stats %v/%v on empty telemetry, want 0/0",
			st.AvgPathsPerSlice, st.SliceFailureRate)
	}
	if st.LiveWorkers != 0 || st.TotalSlots != 0 || len(st.Workers) != 0 {
		t.Fatal("empty coordinator reports phantom workers")
	}
}

func TestRevocationMidRunIsBitIdentical(t *testing.T) {
	blocks := testBlocks(t, nil, nil)
	want, err := grid.RunSequential(context.Background(), blocks, 42)
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := startCluster(t, 3, CoordinatorConfig{})
	// Revoke one worker once slices are in flight: unlike a kill, the worker
	// process stays up and keeps returning results — the coordinator must
	// discard them and re-slice the ranges onto the survivors.
	go func() {
		time.Sleep(30 * time.Millisecond)
		if !coord.Revoke("w1") {
			t.Error("Revoke(w1) found no live member")
		}
	}()
	got, err := coord.RunBlocks(context.Background(), core.BlockRunRequest{
		Blocks: blocks, Seed: 42, PaceSeconds: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	st := coord.Status()
	if st.Revocations != 1 {
		t.Fatalf("revocation counter %d, want 1", st.Revocations)
	}
	if len(coord.live()) != 2 {
		t.Fatalf("%d live members after revocation, want 2", len(coord.live()))
	}
}

func TestRevokeLifecycle(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{HeartbeatEvery: 20 * time.Millisecond})
	mux := http.NewServeMux()
	coord.Routes(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	w := NewWorker("spot-0", 2)
	if err := w.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Join(context.Background(), srv.URL); err != nil {
		t.Fatal(err)
	}
	if !coord.Revoke("spot-0") {
		t.Fatal("Revoke refused a live member")
	}
	if coord.Revoke("spot-0") {
		t.Fatal("double revocation accepted")
	}
	if coord.Revoke("ghost") {
		t.Fatal("Revoke invented a member")
	}
	// The reclaimed instance keeps heartbeating (stale process), but beats
	// must not revive it.
	time.Sleep(120 * time.Millisecond)
	if n := len(coord.live()); n != 0 {
		t.Fatalf("%d live members after revocation despite heartbeats", n)
	}
	st := coord.Status()
	if st.Revocations != 1 {
		t.Fatalf("revocation counter %d", st.Revocations)
	}
	if len(st.Workers) != 1 || !st.Workers[0].Revoked || st.Workers[0].Alive {
		t.Fatalf("worker row %+v, want revoked and not alive", st.Workers)
	}
	// A replacement instance re-joining under the same identity clears the
	// revocation and takes over the shard ownership.
	replacement := NewWorker("spot-0", 2)
	if err := replacement.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replacement.Close)
	if err := replacement.Join(context.Background(), srv.URL); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(coord.live()) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("replacement never became live")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := coord.Status(); st.Workers[0].Revoked {
		t.Fatal("re-join did not clear the revocation")
	}
}

func TestRevocationReprovisionsWhenSlackAllows(t *testing.T) {
	l := &fakeLauncher{}
	coord := NewCoordinator(CoordinatorConfig{Launcher: l})
	// No deadline: slack is unbounded, a replacement is worth booting.
	coord.maybeReprovision(context.Background())
	deadline := time.Now().Add(2 * time.Second)
	for l.started.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("launcher started %d workers, want 1", l.started.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if coord.Status().Reprovisions != 1 {
		t.Fatalf("reprovision counter %d", coord.Status().Reprovisions)
	}
	// Deadline closer than the boot-and-join window: don't bother.
	tight, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	coord.maybeReprovision(tight)
	time.Sleep(20 * time.Millisecond)
	if l.started.Load() != 1 {
		t.Fatalf("launcher started %d workers under a tight deadline, want still 1", l.started.Load())
	}
	// No launcher: a no-op, never a panic.
	NewCoordinator(CoordinatorConfig{}).maybeReprovision(context.Background())
}

// TestExecuteRejectsBadSlices: what arrives at /v1/execute is wire data. A
// slice must carry at least one block, blocks that share a walk, and a range
// inside their outer sample.
func TestExecuteRejectsBadSlices(t *testing.T) {
	w := startWorker(t, "solo", 1)
	typeB := eeb.TypeB(jobBlocks(t))
	wire := sliceRequest(t, typeB, 0, 0, nil).Blocks
	oddOuter := wire[1]
	oddOuter.Outer++
	oddFund := wire[1]
	oddFund.Fund.TargetReturn += 0.001

	post := func(req executeRequest) ([][]float64, error) { return postSlice(context.Background(), w, req) }
	for name, req := range map[string]executeRequest{
		"no blocks":         {From: 0, To: 3},
		"mixed outer sizes": {Blocks: []blockWire{wire[0], oddOuter}, From: 0, To: 3},
		"mixed funds":       {Blocks: []blockWire{wire[0], oddFund}, From: 0, To: 3},
		"range past outer":  {Blocks: wire, From: 28, To: 31},
		"empty range":       {Blocks: wire, From: 3, To: 3},
	} {
		if _, err := post(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	y1, err := post(executeRequest{Blocks: wire, From: 4, To: 9, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(y1) != len(typeB) {
		t.Fatalf("%d Y1 slices for %d blocks", len(y1), len(typeB))
	}
	for bi, b := range typeB {
		want, err := grid.NewEngine(42).ExecuteSlice(context.Background(), b, 4, 9, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if y1[bi][i] != want[i] {
				t.Fatalf("block %s outer %d: worker %v, single-block engine %v", b.ID, 4+i, y1[bi][i], want[i])
			}
		}
	}
}
