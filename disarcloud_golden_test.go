package disarcloud_test

// Golden-file regression test: one fixed-seed end-to-end Solvency II stress
// campaign whose per-module delta-BEL, aggregate SCR and per-job Y1
// fingerprints are compared bit-for-bit against testdata/golden_scr.json.
// Scheduler, pool and control-plane refactors reorder WHEN jobs run but must
// never change WHAT they compute — this test is the tripwire. The aggregates
// are means over 60 outer paths and absorb a last-bit change in every path;
// the fingerprints do not, so "every bit unchanged" is a claim about them. A
// change that intentionally alters valuation arithmetic re-records the file
// in its own diff (DESIGN.md "Numerics policy"):
//
//	go test -run TestGoldenSCRCampaign -update .

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"disarcloud"
	"disarcloud/internal/finmath"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_scr.json from this run")

const goldenPath = "testdata/golden_scr.json"

// goldenSCR is the serialised shape of the campaign outcome. Floats
// round-trip exactly through encoding/json (shortest-representation
// encoding), so equality below is bit-identity.
type goldenSCR struct {
	Seed       uint64             `json:"seed"`
	BaseBEL    float64            `json:"base_bel"`
	BaseVaRSCR float64            `json:"base_var_scr"`
	Modules    map[string]float64 `json:"modules"` // module -> delta-BEL
	SCR        struct {
		Interest            float64 `json:"interest"`
		InterestDownBinding bool    `json:"interest_down_binding"`
		Market              float64 `json:"market"`
		Life                float64 `json:"life"`
		Other               float64 `json:"other"`
		BSCR                float64 `json:"bscr"`
	} `json:"scr"`
	// Y1Fingerprint hashes every time-1 value of every job of the campaign
	// ("base" and each module): see y1Fingerprint.
	Y1Fingerprint map[string]string `json:"y1_fingerprint"`

	// discounted holds, per job, the discounted time-1 value of every outer
	// path. It is not recorded: a run carries it so that a comparison with
	// history can state its own Monte Carlo error.
	discounted map[string][]float64
}

// y1Fingerprint is FNV-1a over math.Float64bits of every Results[block].Y1
// of one job, blocks in ID order: it moves when a single bit of a single
// outer path's value moves.
func y1Fingerprint(t *testing.T, svc *disarcloud.Service, id disarcloud.JobID) string {
	t.Helper()
	rep, err := svc.Result(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(rep.Results))
	for blockID := range rep.Results {
		ids = append(ids, blockID)
	}
	sort.Strings(ids)
	h := fnv.New64a()
	var buf [8]byte
	for _, blockID := range ids {
		for _, y := range rep.Results[blockID].Y1 {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(y))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// discountedY1 returns one job's discounted time-1 values, summed over its
// blocks path by path: their mean is the job's BEL.
func discountedY1(t *testing.T, svc *disarcloud.Service, id disarcloud.JobID) []float64 {
	t.Helper()
	rep, err := svc.Result(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	var sum []float64
	for _, res := range rep.Results {
		if sum == nil {
			sum = make([]float64, len(res.DiscountedY1))
		}
		for j, y := range res.DiscountedY1 {
			sum[j] += y
		}
	}
	return sum
}

// goldenSeed pins the golden campaign: the paper's conference date; never
// change casually.
const goldenSeed = 20160628

// goldenRun executes the fixed campaign: seeds pinned, exploration off, two
// workers so concurrency is exercised while results stay deterministic.
func goldenRun(t *testing.T) goldenSCR {
	t.Helper()
	d, err := disarcloud.NewDeployer(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	return goldenCampaign(t, d)
}

// goldenPortfolio is the campaign's book: ten representative contracts of
// the first Italian company archetype.
func goldenPortfolio(t *testing.T) *disarcloud.Portfolio {
	t.Helper()
	g := disarcloud.ItalianCompanySpecs()[0]
	g.NumContracts = 10
	p, err := disarcloud.GeneratePortfolio(goldenSeed+1, g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// goldenCampaign submits the pinned campaign to a fresh service over the
// given deployer — the clustered golden tests inject a deployer whose block
// runner is a multi-process cluster.
func goldenCampaign(t *testing.T, d *disarcloud.Deployer) goldenSCR {
	t.Helper()
	const seed = goldenSeed
	svc, err := disarcloud.NewService(d, disarcloud.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	p := goldenPortfolio(t)
	market := disarcloud.DefaultMarket(p.MaxTerm())
	ctx := context.Background()
	id, err := svc.SubmitCampaign(ctx, disarcloud.CampaignSpec{
		Base: disarcloud.SimulationSpec{
			Portfolio:   p,
			Fund:        disarcloud.TypicalItalianFund(5, market),
			Market:      market,
			Outer:       60,
			Inner:       5,
			Constraints: disarcloud.Constraints{TmaxSeconds: 3600, MaxNodes: 4, Epsilon: 0},
			MaxWorkers:  2,
			Seed:        seed,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.CampaignResult(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	out := goldenSCR{Seed: seed, BaseBEL: rep.BaseBEL, BaseVaRSCR: rep.BaseVaRSCR,
		Modules:       make(map[string]float64, len(rep.Modules)),
		Y1Fingerprint: map[string]string{"base": y1Fingerprint(t, svc, rep.BaseJob)},
		discounted:    map[string][]float64{"base": discountedY1(t, svc, rep.BaseJob)}}
	for _, m := range rep.Modules {
		out.Modules[string(m.Module)] = m.DeltaBEL
		out.Y1Fingerprint[string(m.Module)] = y1Fingerprint(t, svc, m.Job)
		out.discounted[string(m.Module)] = discountedY1(t, svc, m.Job)
	}
	out.SCR.Interest = rep.SCR.Interest
	out.SCR.InterestDownBinding = rep.SCR.InterestDownBinding
	out.SCR.Market = rep.SCR.Market
	out.SCR.Life = rep.SCR.Life
	out.SCR.Other = rep.SCR.Other
	out.SCR.BSCR = rep.SCR.BSCR
	return out
}

func TestGoldenSCRCampaign(t *testing.T) {
	got := goldenRun(t)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", goldenPath)
		return
	}

	compareGolden(t, got, readGolden(t))
}

// readGolden loads the pinned campaign outcome.
func readGolden(t *testing.T) goldenSCR {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (run with -update to create it): %v", err)
	}
	var want goldenSCR
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode golden file: %v", err)
	}
	return want
}

// compareGolden asserts bit-identity of a run against the golden outcome.
func compareGolden(t *testing.T, got, want goldenSCR) {
	t.Helper()
	if got.BaseBEL != want.BaseBEL {
		t.Errorf("base BEL drifted: got %v, want %v", got.BaseBEL, want.BaseBEL)
	}
	if got.BaseVaRSCR != want.BaseVaRSCR {
		t.Errorf("base VaR SCR drifted: got %v, want %v", got.BaseVaRSCR, want.BaseVaRSCR)
	}
	if len(got.Modules) != len(want.Modules) {
		t.Errorf("module count drifted: got %d, want %d", len(got.Modules), len(want.Modules))
	}
	for mod, wantDelta := range want.Modules {
		gotDelta, ok := got.Modules[mod]
		if !ok {
			t.Errorf("module %s missing from the run", mod)
			continue
		}
		if gotDelta != wantDelta {
			t.Errorf("module %s delta-BEL drifted: got %v, want %v", mod, gotDelta, wantDelta)
		}
	}
	if got.SCR != want.SCR {
		t.Errorf("aggregate SCR drifted:\n got %+v\nwant %+v", got.SCR, want.SCR)
	}
	if len(got.Y1Fingerprint) != len(want.Y1Fingerprint) {
		t.Errorf("fingerprint count drifted: got %d, want %d", len(got.Y1Fingerprint), len(want.Y1Fingerprint))
	}
	for job, wantSum := range want.Y1Fingerprint {
		if gotSum := got.Y1Fingerprint[job]; gotSum != wantSum {
			t.Errorf("job %s: some Y1 bit moved: fingerprint %q, want %q", job, gotSum, wantSum)
		}
	}
}

// TestGoldenSCRRerunIsBitIdentical guards the guard: two fresh runs of the
// golden campaign in one process must agree exactly, or the golden file
// itself would flake.
func TestGoldenSCRRerunIsBitIdentical(t *testing.T) {
	a := goldenRun(t)
	b := goldenRun(t)
	if a.BaseBEL != b.BaseBEL || a.BaseVaRSCR != b.BaseVaRSCR || a.SCR != b.SCR {
		t.Fatalf("same-seed reruns disagree:\n%+v\n%+v", a, b)
	}
	for mod, da := range a.Modules {
		if db := b.Modules[mod]; da != db {
			t.Fatalf("module %s differs across reruns: %v vs %v", mod, da, db)
		}
	}
	for job, fa := range a.Y1Fingerprint {
		if fb := b.Y1Fingerprint[job]; fa != fb {
			t.Fatalf("job %s Y1 differs across reruns: %s vs %s", job, fa, fb)
		}
	}
}

// goldenPortfolioHashPR22 is FNV-1a over the JSON of goldenPortfolio, taken
// at PR 22's commit.
const goldenPortfolioHashPR22 = "9ba1de7a883ee715"

// TestGoldenAggregatesWithinMonteCarloErrorOfPR22 is the HEAD-vs-history half
// of the numerics policy for PR 23, which moved every scenario draw (the
// generator's shocks come from the ziggurat of finmath.RNG.NormFill, not the
// polar method) and nothing else. The comparison is like for like: the book
// is asserted identical to PR 22's first. Then both campaigns are two
// 60-path estimates of the same quantities, so they may differ by Monte
// Carlo error and no more: the base BEL by 4 standard errors of this run's
// own 60 values, each delta-BEL by 4 standard errors of this run's 60 paired
// (shocked minus base) differences, widened by sqrt 2 because PR 22's figure
// is one draw of the same estimator. The VaR SCR is the top order statistic
// of 60 and the SCR rows are functions of the deltas: they are the history
// column, logged, not bounded.
func TestGoldenAggregatesWithinMonteCarloErrorOfPR22(t *testing.T) {
	book, err := json.Marshal(goldenPortfolio(t))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(book)
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenPortfolioHashPR22 {
		t.Fatalf("the golden portfolio is not PR 22's (hash %s, want %s): a fixture stream moved, and nothing below compares like with like", got, goldenPortfolioHashPR22)
	}

	now := goldenRun(t)
	compareGolden(t, now, readGolden(t))
	base := now.discounted["base"]
	// stdErr is the standard error of a job's BEL or, given another job's
	// values, of the mean of the path-by-path difference from them.
	stdErr := func(job string, minus []float64) float64 {
		d := append([]float64(nil), now.discounted[job]...)
		for j := range minus {
			d[j] -= minus[j]
		}
		return finmath.StandardError(d)
	}
	rows := []struct {
		name      string
		pr22, now float64
		se        float64 // 0: history only
	}{
		{"base BEL", 210472100.51915294, now.BaseBEL, stdErr("base", nil)},
		{"base VaR SCR", 18269484.00504619, now.BaseVaRSCR, 0},
		{"equity delta-BEL", 0, now.Modules["equity"], 0},
		{"fx delta-BEL", 0, now.Modules["fx"], 0},
		{"interest_down delta-BEL", 15315360.994946152, now.Modules["interest_down"], math.Sqrt2 * stdErr("interest_down", base)},
		{"interest_up delta-BEL", 0, now.Modules["interest_up"], 0},
		{"lapse delta-BEL", 2300919.1845157146, now.Modules["lapse"], math.Sqrt2 * stdErr("lapse", base)},
		{"mortality delta-BEL", 137926.2608872354, now.Modules["mortality"], math.Sqrt2 * stdErr("mortality", base)},
		{"spread delta-BEL", 1400138.6469914913, now.Modules["spread"], math.Sqrt2 * stdErr("spread", base)},
		{"interest SCR", 15315360.994946152, now.SCR.Interest, 0},
		{"market SCR", 16061267.056430116, now.SCR.Market, 0},
		{"life SCR", 2305049.402315446, now.SCR.Life, 0},
		{"BSCR", 16786558.885593813, now.SCR.BSCR, 0},
	}
	for _, row := range rows {
		switch {
		case row.pr22 == 0:
			// Floored at zero (the shock lowers the liability) or, for fx,
			// not held by this fund: structure, not sampling.
			if row.now != 0 {
				t.Errorf("%s: %v now, identically 0 at PR 22", row.name, row.now)
			}
		case row.se == 0:
			t.Logf("%-24s %18.3f at PR 22, %18.3f now (%+.2f%%)", row.name, row.pr22, row.now, 100*(row.now/row.pr22-1))
		default:
			z := (row.now - row.pr22) / row.se
			t.Logf("%-24s %18.3f at PR 22, %18.3f now (%+.2f%%, %+.2f standard errors of %.0f)", row.name, row.pr22, row.now, 100*(row.now/row.pr22-1), z, row.se)
			if !(math.Abs(z) <= 4) {
				t.Errorf("%s: %v now, %v at PR 22: apart by %.2f standard errors, over 4", row.name, row.now, row.pr22, z)
			}
		}
	}
	if !now.SCR.InterestDownBinding {
		t.Error("the interest-down shock no longer binds")
	}
	if now.Y1Fingerprint["fx"] != now.Y1Fingerprint["base"] {
		t.Errorf("fx job fingerprint %s != base %s: the fx module is identically zero on this fund",
			now.Y1Fingerprint["fx"], now.Y1Fingerprint["base"])
	}
}
