package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disarcloud/internal/alm"
	"disarcloud/internal/core"
	"disarcloud/internal/eeb"
	"disarcloud/internal/grid"
	"disarcloud/internal/stochastic"
)

// shockedRef is a campaign module's scenario recipe as it ships: the shared
// memoised base set under a rate + equity shock.
func shockedRef(seed uint64) *stochastic.Ref {
	return &stochastic.Ref{
		Market:    testMarket(15),
		Seed:      seed,
		Transform: stochastic.Transform{RateShift: 0.01, EquityFactor: 0.61},
		Memoize:   true,
	}
}

// refSharedWith returns a shocked ref, of the first seed from the given one
// on, that has a path among its first 30 owned by the named peer. Ownership is
// a function of the names and the recipe alone, so the choice never changes.
func refSharedWith(names []string, owner string, seed uint64) *stochastic.Ref {
	ring := NewRing(names, 0)
	for ; ; seed++ {
		ref := shockedRef(seed)
		for i := 0; i < 30; i++ {
			if shardOwner(ring, ref.BaseKey(), i) == owner {
				return ref
			}
		}
	}
}

// typeB is the shippable part of the test book: its type-B blocks, carrying
// the ref (a campaign module as it ships) or a live source (the reference).
func typeB(t testing.TB, ref *stochastic.Ref, src stochastic.Source) []*eeb.Block {
	t.Helper()
	return eeb.TypeB(testBlocks(t, ref, src))
}

// liveSource resolves a ref in process, over a fresh base: the source the
// sequential reference walks.
func liveSource(t testing.TB, ref *stochastic.Ref) stochastic.Source {
	t.Helper()
	base, err := ref.NewBaseSource()
	if err != nil {
		t.Fatal(err)
	}
	return ref.Resolve(base)
}

// sliceRequest ships [from, to) of the blocks, as the coordinator would.
func sliceRequest(t testing.TB, blocks []*eeb.Block, from, to int, peers []peerWire) executeRequest {
	t.Helper()
	req := executeRequest{Blocks: make([]blockWire, len(blocks)), From: from, To: to, Seed: 42, ScenarioPeers: peers}
	for i, b := range blocks {
		var err error
		if req.Blocks[i], err = encodeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	return req
}

// postSlice sends a slice straight to a worker, over a client of its own so
// the workers' counted clients see scenario traffic only.
func postSlice(ctx context.Context, w *Worker, req executeRequest) ([][]float64, error) {
	var resp executeResponse
	err := postJSON(ctx, http.DefaultClient, "http://"+w.Addr()+"/v1/execute", req, &resp)
	return resp.Y1, err
}

// assertSliceMatchesReference holds a worker's reply for [from, to) to the
// single-block engine walking the live source.
func assertSliceMatchesReference(t *testing.T, y1 [][]float64, ref *stochastic.Ref, from, to int) {
	t.Helper()
	reference := typeB(t, nil, liveSource(t, ref))
	if len(y1) != len(reference) {
		t.Fatalf("%d Y1 slices for %d blocks", len(y1), len(reference))
	}
	for bi, b := range reference {
		want, err := grid.NewEngine(42).ExecuteSlice(context.Background(), b, from, to, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if y1[bi][i] != want[i] {
				t.Fatalf("block %s outer %d: worker %v, reference %v", b.ID, from+i, y1[bi][i], want[i])
			}
		}
	}
}

// startWorkers brings up n named workers without a coordinator and returns
// them with the membership snapshot a coordinator would ship.
func startWorkers(t testing.TB, n int) ([]*Worker, []peerWire) {
	t.Helper()
	workers := make([]*Worker, n)
	peers := make([]peerWire, n)
	for i := range workers {
		w := startWorker(t, fmt.Sprintf("w%d", i), 2)
		workers[i], peers[i] = w, peerWire{Name: w.Name, Addr: w.Addr()}
	}
	return workers, peers
}

// TestWorkerWalksTheCampaignSource: a worker must value a shocked module of a
// memoised campaign through the source the in-process campaign walks — one
// the valuer can batch — whatever the cluster size.
func TestWorkerWalksTheCampaignSource(t *testing.T) {
	workers, peers := startWorkers(t, 2)
	src, err := workers[0].scenarios(context.Background(), shockedRef(7), peers, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	ib, ok := src.(stochastic.InnerBatcher)
	if !ok {
		t.Fatalf("worker source %T is not an InnerBatcher: the valuer takes the scalar fallback", src)
	}
	batch := ib.NewBatch(nil, 4)
	if batch == nil {
		t.Fatalf("worker source %T cannot shape a panel", src)
	}
	if _, ok := src.(stochastic.OuterBatcher); !ok {
		t.Fatalf("worker source %T is not an OuterBatcher", src)
	}
	// And it serves the campaign's bits.
	want := liveSource(t, shockedRef(7))
	for i := 0; i < 8; i++ {
		a, b := src.Outer(i), want.Outer(i)
		for k := range b.Rates {
			if a.Rates[k] != b.Rates[k] || a.Equities[0][k] != b.Equities[0][k] {
				t.Fatalf("outer %d point %d differs from the in-process source", i, k)
			}
		}
	}
}

// TestPrefetchOncePerSliceAndOwner counts the scenario plane from outside: a
// slice asks each other owner at most once, later slices over the range ask
// nobody, and concurrent slices over one range share one prefetch.
func TestPrefetchOncePerSliceAndOwner(t *testing.T) {
	ref := shockedRef(99)
	other := *ref
	other.Transform = stochastic.Transform{CreditFactor: 1.5}

	workers, peers := startWorkers(t, 3)
	y1, err := postSlice(context.Background(), workers[0], sliceRequest(t, typeB(t, ref, nil), 0, 30, peers))
	if err != nil {
		t.Fatal(err)
	}
	assertSliceMatchesReference(t, y1, ref, 0, 30)
	first := scenarioExchanges(workers[0])
	if first < 1 || first > 2 {
		t.Fatalf("a 30-path slice on 3 workers made %d scenario exchanges, want one per other owner", first)
	}
	if n := scenarioExchanges(workers[1]) + scenarioExchanges(workers[2]); n != 0 {
		t.Fatalf("the owners made %d exchanges of their own while serving", n)
	}

	// Another module of the campaign over the same range: everything is held.
	y1, err = postSlice(context.Background(), workers[0], sliceRequest(t, typeB(t, &other, nil), 0, 30, peers))
	if err != nil {
		t.Fatal(err)
	}
	assertSliceMatchesReference(t, y1, &other, 0, 30)
	if n := scenarioExchanges(workers[0]); n != first {
		t.Fatalf("a second slice over a held range made %d more exchanges", n-first)
	}

	// A fresh cluster under the same names owns the same shards, so two
	// modules arriving together must cost exactly what the single slice did.
	workers, peers = startWorkers(t, 3)
	modules := []*stochastic.Ref{ref, &other}
	replies := make([][][]float64, len(modules))
	errs := make([]error, len(modules))
	var wg sync.WaitGroup
	for i, r := range modules {
		req := sliceRequest(t, typeB(t, r, nil), 0, 30, peers)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = postSlice(context.Background(), workers[0], req)
		}(i)
	}
	wg.Wait()
	for i, r := range modules {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertSliceMatchesReference(t, replies[i], r, 0, 30)
	}
	if n := scenarioExchanges(workers[0]); n != first {
		t.Fatalf("two concurrent slices over one range made %d exchanges, one slice makes %d", n, first)
	}
}

// TestOwnerDownFallsBackBitIdentically: with the other owner's listener
// closed every fetch fails, the worker generates the paths itself, and the
// job still equals the sequential reference.
func TestOwnerDownFallsBackBitIdentically(t *testing.T) {
	ref := shockedRef(99)
	want, err := grid.RunSequential(context.Background(), typeB(t, nil, liveSource(t, ref)), 42)
	if err != nil {
		t.Fatal(err)
	}
	workers, peers := startWorkers(t, 2)
	workers[1].Close()

	blocks := typeB(t, ref, nil)
	y1 := make([][]float64, len(blocks))
	for _, s := range []sliceRange{{0, 13}, {13, 30}} {
		part, err := postSlice(context.Background(), workers[0], sliceRequest(t, blocks, s.from, s.to, peers))
		if err != nil {
			t.Fatal(err)
		}
		for bi := range y1 {
			y1[bi] = append(y1[bi], part[bi]...)
		}
	}
	if scenarioExchanges(workers[0]) == 0 {
		t.Fatal("no exchange was attempted: the dead owner went untested")
	}
	src := liveSource(t, ref)
	for _, b := range blocks {
		b.Scenarios = src
	}
	job, err := alm.NewJobValuer(blocks, 42)
	if err != nil {
		t.Fatal(err)
	}
	results, err := job.Assemble(y1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]*alm.Result)
	for bi, b := range blocks {
		got[b.ID] = results[bi]
	}
	assertSameResults(t, got, want)
}

// TestWorkerSliceAllocsIndependentOfInner: a worker copies memoised paths
// into pooled panels and shocks them in place, so what a slice allocates must
// not depend on the inner sample — the scalar walk paid one transformed
// scenario per inner path.
func TestWorkerSliceAllocsIndependentOfInner(t *testing.T) {
	workers, peers := startWorkers(t, 2)
	allocs := func(inner int) float64 {
		blocks := typeB(t, shockedRef(5), nil)
		for _, b := range blocks {
			b.Inner = inner
		}
		body, err := json.Marshal(sliceRequest(t, blocks, 0, 30, peers))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			rec := httptest.NewRecorder()
			workers[0].handleExecute(rec, httptest.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		})
	}
	four, eight := allocs(4), allocs(8)
	t.Logf("allocs per slice: %.0f at inner 4, %.0f at inner 8", four, eight)
	// 120 more inner paths: a few allocations of slack cover pool refills.
	if eight > four+20 {
		t.Fatalf("a slice allocates %.0f at inner 8 against %.0f at inner 4: it grows with the inner sample", eight, four)
	}
}

// TestScenarioRingHashesNames: shard ownership follows the worker names, so
// two clusters on different ports under the same names move exactly the same
// shards for the same job.
func TestScenarioRingHashesNames(t *testing.T) {
	ref := shockedRef(99)
	want, err := grid.RunSequential(context.Background(), typeB(t, nil, liveSource(t, ref)), 42)
	if err != nil {
		t.Fatal(err)
	}
	exchanges := func() []int64 {
		// A late heartbeat on a loaded box must not change who gets a slice.
		coord, workers := startCluster(t, 2, CoordinatorConfig{DeadAfter: time.Minute})
		got, err := coord.RunBlocks(context.Background(), core.BlockRunRequest{Blocks: typeB(t, ref, liveSource(t, ref)), Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, got, want)
		return []int64{scenarioExchanges(workers[0]), scenarioExchanges(workers[1])}
	}
	a, b := exchanges(), exchanges()
	if a[0]+a[1] == 0 {
		t.Fatal("no scenario travelled: nothing was compared")
	}
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("same names, different ports: %v exchanges per worker, then %v", a, b)
	}
}

// TestScenarioCacheKeepsFourSets: the node-local cache holds the most
// recently used base sets only.
func TestScenarioCacheKeepsFourSets(t *testing.T) {
	var cache scenarioCache
	entries := make([]*cachedSet, 6)
	for i := range entries {
		var err error
		if entries[i], err = cache.base(shockedRef(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(cache.sets) != maxCachedSets {
		t.Fatalf("%d sets cached after 6 distinct refs, want %d", len(cache.sets), maxCachedSets)
	}
	// Every module of a campaign shares the cached entry; using it keeps it.
	module := shockedRef(2)
	module.Transform = stochastic.Transform{}
	if cs, _ := cache.base(module); cs != entries[2] {
		t.Fatal("a held set was rebuilt")
	}
	for _, seed := range []uint64{6, 7, 8} {
		if _, err := cache.base(shockedRef(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if cs, _ := cache.base(shockedRef(2)); cs != entries[2] {
		t.Fatal("the most recently used set was evicted")
	}
	if cs, _ := cache.base(shockedRef(0)); cs == entries[0] {
		t.Fatal("an evicted set came back")
	}
}

// fakeOwner is a peer that answers /v1/scenario with whatever reply builds,
// and counts how often it was asked.
func fakeOwner(t *testing.T, reply func(req scenarioRequest) scenarioResponse) (peerWire, *atomic.Int64) {
	t.Helper()
	asked := new(atomic.Int64)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var req scenarioRequest
		if !decodeInto(rw, r, &req) {
			return
		}
		asked.Add(1)
		writeJSON(rw, http.StatusOK, reply(req))
	}))
	t.Cleanup(srv.Close)
	return peerWire{Name: "fake", Addr: strings.TrimPrefix(srv.URL, "http://")}, asked
}

// pathsOf answers a scenario request from the given recipe's base set.
func pathsOf(t *testing.T, ref *stochastic.Ref, req scenarioRequest) scenarioResponse {
	t.Helper()
	base, err := ref.NewBaseSource()
	if err != nil {
		t.Error(err)
		return scenarioResponse{}
	}
	resp := scenarioResponse{Scenarios: make([]stochastic.ScenarioWire, len(req.Indices))}
	for k, i := range req.Indices {
		resp.Scenarios[k] = base.Outer(i).Wire()
	}
	return resp
}

// TestSetEvictedMidSliceFinishesOnItsReference: while a slice is prefetching,
// five other campaigns push its set out of the cache; the slice still returns
// the reference bits.
func TestSetEvictedMidSliceFinishesOnItsReference(t *testing.T) {
	ref := refSharedWith([]string{"solo", "fake"}, "fake", 99)
	w := startWorker(t, "solo", 1)
	owner, asked := fakeOwner(t, func(req scenarioRequest) scenarioResponse {
		for seed := uint64(1); seed <= 5; seed++ {
			if _, err := w.cache.base(shockedRef(seed)); err != nil {
				t.Error(err)
			}
		}
		return pathsOf(t, ref, req)
	})
	peers := []peerWire{{Name: w.Name, Addr: w.Addr()}, owner}
	y1, err := postSlice(context.Background(), w, sliceRequest(t, typeB(t, ref, nil), 0, 30, peers))
	if err != nil {
		t.Fatal(err)
	}
	if n := asked.Load(); n != 1 {
		t.Fatalf("the owner was asked %d times, want 1", n)
	}
	assertSliceMatchesReference(t, y1, ref, 0, 30)
	if len(w.cache.sets) != maxCachedSets {
		t.Fatalf("%d sets cached, want %d", len(w.cache.sets), maxCachedSets)
	}
	for _, cs := range w.cache.sets {
		if cs.key == ref.BaseKey() {
			t.Fatal("the slice's set was not evicted: the test did not exercise eviction")
		}
	}
}

// TestScenarioExchangeRejectsBadWire: both ends of /v1/scenario handle wire
// data. The owner refuses malformed requests; the fetching worker drops
// malformed replies and generates the paths itself, so the slice's bits never
// depend on what a peer sent.
func TestScenarioExchangeRejectsBadWire(t *testing.T) {
	ref := shockedRef(99)
	w := startWorker(t, "solo", 1)

	base := *ref
	base.Transform = stochastic.Transform{}
	badMarket := base
	badMarket.Market.Horizon = 0
	ask := func(req scenarioRequest) (scenarioResponse, error) {
		var resp scenarioResponse
		err := postJSON(context.Background(), http.DefaultClient, "http://"+w.Addr()+"/v1/scenario", req, &resp)
		return resp, err
	}
	for name, req := range map[string]scenarioRequest{
		"no indices":     {Ref: base},
		"over the cap":   {Ref: base, Indices: make([]int, maxScenarioIndices+1)},
		"negative index": {Ref: base, Indices: []int{3, -1}},
		"huge index":     {Ref: base, Indices: []int{1<<30 + 1}},
		"bad ref":        {Ref: badMarket, Indices: []int{0}},
	} {
		if _, err := ask(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	resp, err := ask(scenarioRequest{Ref: base, Indices: []int{4, 0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Scenarios) != 3 {
		t.Fatalf("%d paths for 3 indices", len(resp.Scenarios))
	}

	// A peer's reply that would change the bits if it were believed: paths of
	// another seed, one short of the request, on a shorter grid, or with a
	// driver missing.
	wrong := func(ref *stochastic.Ref, horizon int) *stochastic.Ref {
		r := *ref
		r.Seed++
		r.Market.Horizon += horizon
		return &r
	}
	for i, tc := range []struct {
		name  string
		reply func(*stochastic.Ref, scenarioRequest) scenarioResponse
	}{
		{"reply one short", func(ref *stochastic.Ref, req scenarioRequest) scenarioResponse {
			resp := pathsOf(t, wrong(ref, 0), req)
			resp.Scenarios = resp.Scenarios[1:]
			return resp
		}},
		{"wrong-grid paths", func(ref *stochastic.Ref, req scenarioRequest) scenarioResponse {
			return pathsOf(t, wrong(ref, -1), req)
		}},
		{"unrestorable paths", func(ref *stochastic.Ref, req scenarioRequest) scenarioResponse {
			resp := pathsOf(t, wrong(ref, 0), req)
			for k := range resp.Scenarios {
				resp.Scenarios[k].Credit = nil
			}
			return resp
		}},
	} {
		// A recipe per case: each starts from a set that holds nothing.
		ref := refSharedWith([]string{"solo", "fake"}, "fake", 200+100*uint64(i))
		owner, asked := fakeOwner(t, func(req scenarioRequest) scenarioResponse { return tc.reply(ref, req) })
		peers := []peerWire{{Name: w.Name, Addr: w.Addr()}, owner}
		y1, err := postSlice(context.Background(), w, sliceRequest(t, typeB(t, ref, nil), 0, 30, peers))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := asked.Load(); n != 1 {
			t.Fatalf("%s: the owner was asked %d times, want 1", tc.name, n)
		}
		assertSliceMatchesReference(t, y1, ref, 0, 30)
	}
}

// TestCancelledSliceStopsFetching: the prefetch runs under the slice's
// request context, so an abandoned slice lets go of the owner at once.
func TestCancelledSliceStopsFetching(t *testing.T) {
	ref := refSharedWith([]string{"solo", "stalled"}, "stalled", 99)
	w := startWorker(t, "solo", 1)
	entered, released := make(chan struct{}), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		// The server notices a vanished client only once the body is read.
		_, _ = io.Copy(io.Discard, r.Body)
		close(entered)
		<-r.Context().Done()
		close(released)
	}))
	t.Cleanup(srv.Close)
	peers := []peerWire{{Name: w.Name, Addr: w.Addr()}, {Name: "stalled", Addr: strings.TrimPrefix(srv.URL, "http://")}}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := postSlice(ctx, w, sliceRequest(t, typeB(t, ref, nil), 0, 30, peers))
		done <- err
	}()
	select {
	case <-entered:
	case err := <-done:
		t.Fatalf("the slice ended before asking the owner: %v", err)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("a cancelled slice returned values")
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("the fetch outlived its cancelled slice")
	}
}
