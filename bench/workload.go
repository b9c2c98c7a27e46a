//go:build unix

package main

import (
	"encoding/json"
	"fmt"

	"disarcloud"
	"disarcloud/internal/core"
	"disarcloud/internal/provision"
	"disarcloud/internal/stochastic"
	"disarcloud/internal/stress"
)

// workload is one closed-loop traffic mix against real disard processes.
// Every workload is unpaced: bodies carry pace_factor 0, so latencies are
// real compute and the deploy's dollars and actual_seconds are simulated.
type workload struct {
	name string
	why  string
	// campaign posts to /v1/campaigns (7 standard-formula modules + base,
	// scenario reuse on) instead of /v1/jobs.
	campaign bool
	// cluster boots a -cluster coordinator plus nproc single-slot -join
	// workers instead of one plain daemon.
	cluster bool
	// kbSamples, when positive, is the size of the knowledge base generated
	// at set-up and loaded by every round's daemon; 0 boots a cold one.
	kbSamples int
	// perCoreClients makes the client count nproc; otherwise one client.
	perCoreClients bool
	// contracts/outer/inner size one valuation.
	contracts, outer, inner int
	// ops and warmup are per round: warm-up ops fill pools and lazy set-up
	// and are discarded; ops is a multiple of 3 so every round carries each
	// portfolio archetype equally often.
	ops, warmup int
	// slice is how many measured ops run between two calibration points
	// (see calib.go): one for the second-long ops, a dozen for the small
	// ones, whose clients then meet at a barrier every half second.
	slice int
}

// workloads are sized so that one round measures for 2-4 s on the 2-vCPU
// reference box: a run of BENCHMARK.json's run_seconds then holds at least
// three rounds, which is what the set-up median needs.
var workloads = []workload{
	{
		name:      "nested_mc",
		why:       "compute-bound job on a cold KB: stochastic/finmath/fund/policy/alm/grid do the work, the deploy is a bootstrap pick",
		contracts: 50, outer: 1000, inner: 50,
		ops: 3, warmup: 1, slice: 1,
	},
	{
		name:      "small_warm",
		why:       "control-plane-bound: 3 ms of valuation inside Select + KB add + RetrainArchitecture under the deploy mutex on a 600-sample KB",
		kbSamples: 600, perCoreClients: true,
		contracts: 6, outer: 30, inner: 3,
		ops: 72, warmup: 10, slice: 12,
	},
	{
		name:      "campaign",
		why:       "stress campaign: 8 jobs share the memoised scenario Set through in-place transforms and contend for nproc pool slots",
		campaign:  true,
		contracts: 25, outer: 500, inner: 30,
		ops: 3, warmup: 1, slice: 1,
	},
	{
		name:     "cluster_campaign",
		why:      "the same campaign bodies through internal/cluster: wire encode, /v1/execute scatter/gather, /v1/scenario shard fetches",
		campaign: true, cluster: true,
		contracts: 25, outer: 500, inner: 30,
		ops: 3, warmup: 1, slice: 1,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks the workload to a plumbing check: two ops, a tenth of the
// outer paths and a KB just large enough for every architecture to train.
func (w workload) smoke() workload {
	w.ops, w.warmup, w.slice = 2, 0, 1
	w.outer = max(w.outer/10, 20)
	if w.kbSamples > 0 {
		w.kbSamples = 120
	}
	return w
}

func (w workload) clients(nproc int) int {
	if w.perCoreClients {
		return nproc
	}
	return 1
}

// opBody is the HTTP submit body of one op. Everything the daemon sees of
// the benchmark seed is in here; omitted fields take the server defaults
// mirrored by the server* constants below.
type opBody struct {
	Portfolio  int     `json:"portfolio"`
	Contracts  int     `json:"contracts"`
	Outer      int     `json:"outer"`
	Inner      int     `json:"inner"`
	Seed       uint64  `json:"seed"`
	MaxWorkers int     `json:"max_workers"`
	PaceFactor float64 `json:"pace_factor"`
}

// body generates op i. Round r of the untraced rounds measures indices
// [r*ops, (r+1)*ops), so a run averages over several portfolios of each
// archetype; the traced round repeats round 0's. The +1 keeps seed 0
// ("server-assigned") out of reach for every -seed.
func (w workload) body(seed uint64, i, nproc int) opBody {
	return opBody{
		Portfolio:  i % 3,
		Contracts:  w.contracts,
		Outer:      w.outer,
		Inner:      w.inner,
		Seed:       seed + 1 + uint64(i),
		MaxWorkers: nproc,
		PaceFactor: 0,
	}
}

func (b opBody) json() []byte {
	out, err := json.Marshal(b)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal op body: %v", err)) // plain struct of numbers
	}
	return out
}

// The daemon's documented defaults for fields the bodies omit, and the
// type-B block granularity of core.RunSimulation. The stage replay rebuilds
// specs with them; if the daemon's drift, block IDs or values stop matching
// the HTTP results and the reference check fails.
const (
	serverFundAssets        = 6
	serverTmaxSeconds       = 900.0
	serverMaxNodes          = 8
	serverEpsilon           = 0.05
	serverContractsPerBlock = 25
)

// jobSpec rebuilds the simulation spec exactly as cmd/disard's buildSpec
// does for the body.
func (b opBody) jobSpec() (core.SimulationSpec, error) {
	gen := disarcloud.ItalianCompanySpecs()[b.Portfolio]
	gen.NumContracts = b.Contracts
	p, err := disarcloud.GeneratePortfolio(b.Seed+1, gen)
	if err != nil {
		return core.SimulationSpec{}, err
	}
	market := disarcloud.DefaultMarket(p.MaxTerm())
	return core.SimulationSpec{
		Portfolio: p,
		Fund:      disarcloud.TypicalItalianFund(serverFundAssets, market),
		Market:    market,
		Outer:     b.Outer,
		Inner:     b.Inner,
		Constraints: provision.Constraints{
			TmaxSeconds: serverTmaxSeconds, MaxNodes: serverMaxNodes, Epsilon: serverEpsilon,
		},
		MaxWorkers: b.MaxWorkers,
		Seed:       b.Seed,
	}, nil
}

// opJob is one valuation of an op: the whole op for a job workload, the
// base or one shocked module for a campaign.
type opJob struct {
	// name is "" for a plain job, "base" or the module name in a campaign.
	name string
	spec core.SimulationSpec
}

// opJobs expands an op into its valuations with FRESH scenario sources, the
// way core.SubmitCampaign fans a campaign out: one memoising Set shared by
// the base and every module, each module a Derived view over it. The Set is
// returned for its generation counter (nil for a plain job).
func (w workload) opJobs(b opBody) ([]opJob, *stochastic.Set, error) {
	base, err := b.jobSpec()
	if err != nil {
		return nil, nil, err
	}
	if !w.campaign {
		return []opJob{{spec: base}}, nil, nil
	}
	gen, err := stochastic.NewGenerator(base.Market)
	if err != nil {
		return nil, nil, err
	}
	set := stochastic.NewSet(gen, base.Seed)
	baseRef := stochastic.Ref{Market: base.Market, Seed: base.Seed, Memoize: true}
	baseSpec := base
	baseSpec.Scenarios = set
	baseSpec.ScenarioRef = &baseRef
	jobs := []opJob{{name: "base", spec: baseSpec}}
	for _, sh := range stress.StandardFormula() {
		spec := base
		spec.Market = sh.Market.Config(base.Market)
		spec.Biometric = base.Biometric.Compose(sh.Biometric)
		spec.Scenarios = stochastic.Derived(set, sh.Market)
		ref := baseRef
		ref.Transform = sh.Market
		spec.ScenarioRef = &ref
		jobs = append(jobs, opJob{name: string(sh.Module), spec: spec})
	}
	return jobs, set, nil
}
