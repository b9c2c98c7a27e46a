package grid

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"disarcloud/internal/actuarial"
	"disarcloud/internal/eeb"
	"disarcloud/internal/fund"
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

// testBlocks is a three-block job: six contracts split two per type-B block,
// the blocks' MaxTerms (15, 12, 20) all different.
func testBlocks(t *testing.T) []*eeb.Block {
	t.Helper()
	return splitTestPortfolio(t, "grid-test", 30)
}

func splitTestPortfolio(t *testing.T, name string, outer int) []*eeb.Block {
	t.Helper()
	market := testMarket(20)
	contracts := []policy.Contract{
		{Kind: policy.Endowment, Age: 45, Gender: actuarial.Male, Term: 10,
			InsuredSum: 10000, Beta: 0.8, TechnicalRate: 0.02, Count: 50},
		{Kind: policy.Annuity, Age: 60, Gender: actuarial.Female, Term: 15,
			InsuredSum: 1500, Beta: 0.8, TechnicalRate: 0.0, Count: 25},
		{Kind: policy.PureEndowment, Age: 35, Gender: actuarial.Male, Term: 12,
			InsuredSum: 15000, Beta: 0.9, TechnicalRate: 0.01, Count: 40},
		{Kind: policy.TermInsurance, Age: 40, Gender: actuarial.Male, Term: 8,
			InsuredSum: 80000, Beta: 0.8, TechnicalRate: 0.0, Count: 60},
		{Kind: policy.WholeLife, Age: 50, Gender: actuarial.Female, Term: 20,
			InsuredSum: 30000, Beta: 0.85, TechnicalRate: 0.005, Count: 35},
		{Kind: policy.Endowment, Age: 38, Gender: actuarial.Female, Term: 7,
			InsuredSum: 22000, Beta: 0.75, TechnicalRate: 0.03, Count: 45,
			Penalty: 0.04, PenaltyYears: 5},
	}
	p := &policy.Portfolio{Name: name, Contracts: contracts}
	blocks, err := eeb.SplitPortfolio(p, fund.TypicalItalianFund(4, market), market,
		eeb.SplitSpec{MaxContractsPerBlock: 2, Outer: outer, Inner: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(eeb.TypeB(blocks)); n != 3 {
		t.Fatalf("fixture split into %d type-B blocks, want 3", n)
	}
	return blocks
}

func TestDistributedMatchesSequential(t *testing.T) {
	blocks := testBlocks(t)
	seq, err := RunSequential(context.Background(), blocks, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 7} {
		m := &Master{Workers: workers, Seed: 42}
		dist, err := m.Run(context.Background(), blocks)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(dist) != len(seq) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(dist), len(seq))
		}
		for id, want := range seq {
			got, ok := dist[id]
			if !ok {
				t.Fatalf("workers=%d: missing block %s", workers, id)
			}
			if got.BEL != want.BEL || got.SCR != want.SCR {
				t.Fatalf("workers=%d block %s: BEL %v/%v SCR %v/%v — distribution changed the numbers",
					workers, id, got.BEL, want.BEL, got.SCR, want.SCR)
			}
		}
	}
}

func TestMasterValidation(t *testing.T) {
	m := &Master{Workers: 0, Seed: 1}
	if _, err := m.Run(context.Background(), testBlocks(t)); err == nil {
		t.Fatal("zero workers accepted")
	}
	bad := testBlocks(t)
	bad[1].Outer = 0
	m = &Master{Workers: 2, Seed: 1}
	if _, err := m.Run(context.Background(), bad); err == nil {
		t.Fatal("invalid block accepted")
	}
}

func TestProgressMonitoring(t *testing.T) {
	// Two jobs with different outer sizes in one list: two walks of three
	// blocks each, every block reporting its own outer total.
	blocks := append(testBlocks(t), splitTestPortfolio(t, "grid-test-2", 17)...)
	if n := len(eeb.GroupWalks(blocks)); n != 2 {
		t.Fatalf("mixed list groups into %d walks, want 2", n)
	}
	var events atomic.Int64
	finals := make(map[string]int)
	m := &Master{
		Workers: 3,
		Seed:    7,
		OnProgress: func(p Progress) {
			events.Add(1)
			if p.Done > p.Total {
				t.Errorf("block %s: Done %d exceeds Total %d", p.BlockID, p.Done, p.Total)
			}
			if p.Done == p.Total {
				finals[p.BlockID] = p.Total
			}
		},
	}
	got, err := m.Run(context.Background(), blocks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSequential(context.Background(), blocks, 7)
	if err != nil {
		t.Fatal(err)
	}
	typeB := eeb.TypeB(blocks)
	wantEvents := 0
	for _, b := range typeB {
		wantEvents += b.Outer
		if finals[b.ID] != b.Outer {
			t.Errorf("block %s finished at %d of %d paths", b.ID, finals[b.ID], b.Outer)
		}
		if got[b.ID] == nil || got[b.ID].BEL != want[b.ID].BEL || got[b.ID].SCR != want[b.ID].SCR {
			t.Errorf("block %s: two-walk run differs from the per-block reference", b.ID)
		}
	}
	if got := int(events.Load()); got != wantEvents {
		t.Fatalf("progress events = %d, want %d", got, wantEvents)
	}
	if len(finals) != len(typeB) {
		t.Fatalf("completion events for %d blocks, want %d", len(finals), len(typeB))
	}
}

func TestExecuteTypeA(t *testing.T) {
	blocks := testBlocks(t)
	var typeA *eeb.Block
	for _, b := range blocks {
		if b.Type == eeb.ActuarialValuation {
			typeA = b
			break
		}
	}
	if typeA == nil {
		t.Fatal("no type-A block in split")
	}
	eng := NewEngine(1)
	tables, err := eng.ExecuteTypeA(typeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != typeA.Portfolio.NumRepresentative() {
		t.Fatalf("%d tables for %d contracts", len(tables), typeA.Portfolio.NumRepresentative())
	}
	for i, table := range tables {
		if got := table.TotalProbability(); got < 0.999999 || got > 1.000001 {
			t.Fatalf("table %d probability %v", i, got)
		}
	}
	// Type-B block rejected.
	if _, err := eng.ExecuteTypeA(eeb.TypeB(blocks)[0]); err == nil {
		t.Fatal("type-B block accepted by ExecuteTypeA")
	}
}

func TestExecuteSliceMatchesRange(t *testing.T) {
	b := eeb.TypeB(testBlocks(t))[0]
	eng := NewEngine(9)
	out, err := eng.ExecuteSlice(context.Background(), b, 3, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Fatalf("slice length %d, want 6", len(out))
	}
	count := 0
	if _, err := eng.ExecuteSlice(context.Background(), b, 0, 4, func() { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("onDone fired %d times, want 4", count)
	}
}

func TestMoreWorkersThanOuterPaths(t *testing.T) {
	blocks := testBlocks(t)
	seq, err := RunSequential(context.Background(), blocks, 42)
	if err != nil {
		t.Fatal(err)
	}
	// More ranks than outer paths: the ranks past the 30th have nothing to
	// walk. 4096 of them must cost nothing either (a channel per pair of
	// ranks would be gigabytes).
	for _, workers := range []int{64, 1 << 12} {
		dist, err := (&Master{Workers: workers, Seed: 42}).Run(context.Background(), blocks)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for id, want := range seq {
			if got := dist[id]; got == nil || got.BEL != want.BEL || got.SCR != want.SCR {
				t.Fatalf("workers=%d: block %s differs from the sequential reference", workers, id)
			}
		}
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	blocks := testBlocks(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the monitoring hook once the run is provably in
	// flight; every rank must stop between outer paths and Run must
	// surface the context error, not a partial result.
	var fired atomic.Bool
	m := &Master{
		Workers: 3,
		Seed:    42,
		OnProgress: func(Progress) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
	}
	res, err := m.Run(ctx, blocks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled Run returned partial results")
	}
}

func TestExecuteSliceHonoursCancellation(t *testing.T) {
	b := eeb.TypeB(testBlocks(t))[0]
	eng := NewEngine(9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.ExecuteSlice(ctx, b, 0, b.Outer, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteSlice with cancelled ctx = %v, want context.Canceled", err)
	}
}
