// Command disard is the DISAR valuation daemon: the disarcloud.Service
// exposed over HTTP/JSON. It serves a stream of regulatory valuation
// requests against one shared self-optimizing deployer, so every completed
// job's measured execution time improves the deploy predictions of the
// next.
//
// Endpoints:
//
//	POST   /v1/jobs                    submit a valuation job (JSON body below)
//	GET    /v1/jobs                    list all jobs
//	GET    /v1/jobs/{id}               job status snapshot
//	GET    /v1/jobs/{id}/result        job outcome; ?wait=1 blocks until terminal
//	GET    /v1/jobs/{id}/progress      NDJSON stream of outer-path progress events
//	DELETE /v1/jobs/{id}               cancel a job
//	POST   /v1/campaigns               submit a Solvency II stress campaign
//	GET    /v1/campaigns               list all campaigns
//	GET    /v1/campaigns/{id}          campaign status snapshot
//	GET    /v1/campaigns/{id}/result   per-module delta-BEL + aggregated SCR; ?wait=1 blocks
//	DELETE /v1/campaigns/{id}          cancel every job of a campaign
//	GET    /v1/autoscaler              elastic control-plane status + recent scaling decisions
//	GET    /v1/autoscaler/events       NDJSON stream of scaling decisions
//	GET    /v1/forecast                proactive-provisioning status (model scoreboard + planner target)
//	GET    /v1/proxy                   LSMC proxy-tier status (default spec + hit-rate/error telemetry)
//	GET    /v1/cost                    cost plane: purchasing defaults, lifetime spend, per-tier price card
//	POST   /v1/loadgen/trace           generate a seeded synthetic load trace from a spec
//	GET    /v1/cluster                 cluster status: workers, slices, fault-path counters (-cluster)
//	POST   /v1/join                    worker registration (-cluster; called by disard -join)
//	POST   /v1/heartbeat               worker liveness beat (-cluster)
//	GET    /v1/kb                      knowledge-base export for peer gossip (-cluster)
//	GET    /healthz                    liveness + knowledge-base size
//
// With -cluster the daemon is a cluster coordinator: valuations are
// scattered as outer-path slices across worker processes started with
// `disard -join <coordinator-url>` (or self-spawned via -spawn-workers; under
// a -policy the controller's worker target also scales the process fleet). A
// worker lost mid-run has its range re-sliced onto the survivors with
// bit-identical results. With -peers plus -self, submissions are routed to
// their consistent-hash owner among the peer coordinators and knowledge
// bases gossip every -gossip-every.
//
// -policy is the one selector of the scaling decision layer. Empty (the
// default) keeps a fixed pool of -workers; any other value makes the pool
// elastic between -min-workers and -max-workers:
//
//   - "reactive": the threshold controller alone, from queue/backlog pressure.
//   - "hybrid": the control loop also records per-interval demand telemetry,
//     keeps the lowest-sMAPE forecast model fitted on it, and feed-forwards
//     the predicted arrival rate times the KB-estimated job runtime into the
//     worker target (tuned by -forecast-window, -forecast-season and
//     -forecast-headroom); each tick applies the maximum of the reactive and
//     proactive targets.
//   - "learned": a Q-table trained offline by cmd/qtrain (internal/rl) and
//     loaded from -qtable, which no other policy accepts. A learned daemon
//     takes the -min-workers/-max-workers not given on the command line from
//     the table's own spec.
//
// GET /v1/autoscaler reports the active policy and its hyperparameters. With
// -admission, submissions whose predicted completion time busts their own
// tmax_seconds are rejected with 503 and a Retry-After estimate of the
// backlog drain time.
//
// With -check <file> the daemon does not serve at all: it model-checks the
// scaling policy described by the JSON request file against its SLA bound
// (exact value iteration over the policy x arrival-model product chain, see
// internal/verify), prints the report and exits non-zero on a violation.
// CI runs it against testdata/verify_default.json to gate the shipped
// elastic configuration and testdata/verify_learned.json to gate the
// shipped Q-table artifact; a learned request names its qtable path,
// resolved relative to the request file's directory.
//
// Trace body for POST /v1/loadgen/trace (defaults in parentheses):
//
//	{
//	  "kind":       "mixed", // diurnal / bursty / ramp / flash / mixed / weekly
//	  "intervals":  120,     // trace length
//	  "seed":       0,       // 0 = server-assigned
//	  "base_rate":  2,       // mean arrivals per interval, calm regime
//	  "peak_rate":  8,       // high regime (0 = 4x base)
//	  "rates":      false    // include the deterministic rate profile
//	}
//
// Submit body (defaults in parentheses):
//
//	{
//	  "portfolio":    0,      // archetype 0..2: savings / mixed / annuity
//	  "contracts":    20,     // representative contracts to generate
//	  "fund_assets":  6,      // segregated-fund asset sleeves
//	  "outer":        200,    // n_P real-world scenarios
//	  "inner":        10,     // n_Q risk-neutral scenarios per outer path
//	  "tmax_seconds": 900,    // Solvency II deadline
//	  "max_nodes":    8,      // Algorithm 1 node bound
//	  "epsilon":      0.05,   // exploration probability
//	  "max_workers":  8,      // in-process valuation workers (0 = derive)
//	  "seed":         42,     // valuation seed (0 = server-assigned)
//	  "pace_factor":  0,      // wall-clock occupancy per simulated second (load testing)
//	  "budget":       0,      // max billed USD; explicit 0 lifts the -max-cost default
//	  "tier":         "",     // purchasing tiers: on-demand / reserved / spot / any ("" = daemon default)
//	  "proxy": {              // optional: route through the LSMC proxy serving tier
//	    "train_outer":    128,     // full nested valuations sampled for training
//	    "train_inner":    0,       // inner paths per training valuation (0 = job's inner)
//	    "error_budget":   0.05,    // relative band tolerance before escalation
//	    "escalation_cap": 0.25,    // max fraction of paths escalated to full MC
//	    "model":          "forest",// forest / poly / linear / mlp
//	    "degree":         2        // polynomial basis degree (poly model)
//	  }
//	}
//
// Campaign bodies accept the same fields plus "no_reuse" (disable
// scenario-set reuse) and "longevity" (add the longevity module); a proxy
// section on the base routes every shock module through the proxy tier.
//
// With -proxy, jobs that do not carry their own proxy section default to the
// proxy tier with -proxy-budget, -proxy-sample and -proxy-model; GET
// /v1/proxy reports the tier's aggregate hit-rate and error telemetry either
// way.
//
// With -spot, jobs that do not pick their own "tier" may be placed on
// reserved or revocable spot capacity whenever the deadline affords the
// revocation risk; with -max-cost every job defaults to that billed-dollar
// budget. A budget no tier mix can meet is rejected up front with 400 and a
// body naming the cheapest feasible cost — no Retry-After, because waiting
// does not make the same budget sufficient. GET /v1/cost reports the price
// card and the service-lifetime spend.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"disarcloud"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "disard:", err)
		os.Exit(1)
	}
}

// flagWasSet reports whether the named flag was given explicitly.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// poolFlags are the command-line settings of the worker pool and of the
// scaling policy that drives it.
type poolFlags struct {
	workers, queue         int
	minWorkers, maxWorkers int
	minSet, maxSet         bool // -min-workers / -max-workers given explicitly
	admission              bool
	policy, qtable         string
	forecast               disarcloud.ForecastConfig // the hybrid policy's planner
}

// serviceOptions maps the pool flags onto service options: -policy ""
// keeps a fixed pool, and reactive, hybrid and learned make it elastic under
// that decision layer (see the package doc). d prices jobs for -admission;
// scale, when non-nil, follows an elastic pool's target.
func (p poolFlags) serviceOptions(d *disarcloud.Deployer, scale func(int)) ([]disarcloud.ServiceOption, error) {
	opts := []disarcloud.ServiceOption{disarcloud.WithWorkers(p.workers), disarcloud.WithQueueDepth(p.queue)}
	if p.admission {
		opts = append(opts, disarcloud.WithAdmissionControl(disarcloud.PredictorEstimator(d)))
	}
	if p.qtable != "" && p.policy != "learned" {
		return nil, fmt.Errorf("-qtable only drives -policy learned (got -policy %q)", p.policy)
	}
	bounds := disarcloud.ElasticConfig{MinWorkers: p.minWorkers, MaxWorkers: p.maxWorkers}
	switch p.policy {
	case "":
		return opts, nil
	case "reactive":
	case "hybrid":
		opts = append(opts, disarcloud.WithForecast(p.forecast))
	case "learned":
		if p.qtable == "" {
			return nil, fmt.Errorf("-policy learned needs a -qtable")
		}
		t, err := disarcloud.LoadQTable(p.qtable)
		if err != nil {
			return nil, fmt.Errorf("load qtable: %w", err)
		}
		// The artifact knows the pool it was trained for; unflagged bounds
		// follow it so the policy is never boxed into bounds it never saw.
		if !p.minSet {
			bounds.MinWorkers = t.Spec.MinWorkers
		}
		if !p.maxSet {
			bounds.MaxWorkers = t.Spec.MaxWorkers
		}
		opts = append(opts, disarcloud.WithLearnedPolicy(t))
	default:
		return nil, fmt.Errorf("unknown -policy %q (want reactive, hybrid or learned)", p.policy)
	}
	opts = append(opts, disarcloud.WithElastic(bounds))
	if scale != nil {
		opts = append(opts, disarcloud.WithProcessScaler(scale))
	}
	return opts, nil
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		seed      = flag.Uint64("seed", 2016, "root seed of the shared deployer")
		workers   = flag.Int("workers", 4, "concurrent valuations (the initial pool under a -policy)")
		queue     = flag.Int("queue", 64, "submit queue depth")
		kbPath    = flag.String("kb", "", "knowledge-base JSON to load at boot and save at shutdown")
		minW      = flag.Int("min-workers", 0, "elastic pool floor (0 = initial -workers)")
		maxW      = flag.Int("max-workers", 16, "elastic pool ceiling")
		admission = flag.Bool("admission", false, "reject jobs whose predicted completion busts their tmax (503 + Retry-After)")
		fcWindow  = flag.Int("forecast-window", 0, "hybrid planner: telemetry ring capacity in control ticks (0 = default)")
		fcHead    = flag.Float64("forecast-headroom", 0, "hybrid planner: headroom factor >= 1 (0 = default)")
		fcSeason  = flag.Int("forecast-season", 0, "hybrid planner: seasonality hint in control ticks for the Holt-Winters candidate (0 = no seasonal model)")
		policy    = flag.String("policy", "", "scaling policy: reactive, hybrid or learned (with -qtable); empty keeps a fixed pool of -workers")
		qtable    = flag.String("qtable", "", "trained Q-table artifact for -policy learned")
		proxy     = flag.Bool("proxy", false, "route jobs without their own proxy section through the LSMC proxy serving tier")
		proxyBud  = flag.Float64("proxy-budget", 0, "default proxy relative error budget in (0,1] (0 = proxyval default)")
		proxySamp = flag.Int("proxy-sample", 0, "default proxy training-sample size (0 = proxyval default)")
		proxyMod  = flag.String("proxy-model", "", "default proxy model family: forest / poly / linear / mlp (empty = forest)")
		spot      = flag.Bool("spot", false, "offer reserved and revocable spot capacity to jobs without their own tier field")
		maxCost   = flag.Float64("max-cost", 0, "default per-job budget in USD; infeasible budgets are rejected up front (0 = unlimited)")

		join        = flag.String("join", "", "worker mode: register with this coordinator base URL and execute shipped slices")
		workerName  = flag.String("worker-name", "", "worker identity on the scenario ring (default <host>-<pid>)")
		workerSlots = flag.Int("worker-slots", 2, "slice concurrency a worker advertises")
		clusterMode = flag.Bool("cluster", false, "coordinator mode: distribute valuations across joined worker processes")
		spawn       = flag.Int("spawn-workers", 0, "worker processes to self-spawn at boot (requires -cluster)")
		peersFlag   = flag.String("peers", "", "comma-separated peer coordinator base URLs (consistent-hash job routing + KB gossip)")
		selfURL     = flag.String("self", "", "this coordinator's base URL as peers reach it (required with -peers)")
		gossipEvery = flag.Duration("gossip-every", 30*time.Second, "knowledge-base sync cadence with -peers")

		check = flag.String("check", "", "model-check the scaling policy in this JSON request file against its SLA and exit (no server)")
	)
	flag.Parse()
	if *check != "" {
		return runCheck(*check, os.Stdout)
	}
	pool := poolFlags{
		workers: *workers, queue: *queue,
		minWorkers: *minW, maxWorkers: *maxW,
		minSet: flagWasSet("min-workers"), maxSet: flagWasSet("max-workers"),
		admission: *admission, policy: *policy, qtable: *qtable,
		forecast: disarcloud.ForecastConfig{Window: *fcWindow, Headroom: *fcHead, SeasonPeriod: *fcSeason},
	}
	if *maxCost < 0 || math.IsNaN(*maxCost) {
		return fmt.Errorf("-max-cost %v is not a non-negative dollar amount", *maxCost)
	}
	if *join != "" {
		if *clusterMode || *spawn > 0 || *peersFlag != "" {
			return fmt.Errorf("-join selects worker mode and excludes the coordinator flags")
		}
		// The default listen address belongs to the coordinator; a worker
		// that was not given its own takes an ephemeral loopback port so
		// several can share one machine.
		workerAddr := *addr
		if !flagWasSet("addr") {
			workerAddr = "127.0.0.1:0"
		}
		return runWorker(workerAddr, *join, *workerName, *workerSlots)
	}
	if !*clusterMode && (*spawn > 0 || *peersFlag != "" || *selfURL != "") {
		return fmt.Errorf("-spawn-workers/-peers/-self require -cluster")
	}
	var peers []string
	if *peersFlag != "" {
		if *selfURL == "" {
			return fmt.Errorf("-peers requires -self: the ring needs this coordinator's own URL")
		}
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}
	var defaultProxy *disarcloud.ProxySpec
	if *proxy {
		defaultProxy = &disarcloud.ProxySpec{
			TrainOuter:  *proxySamp,
			ErrorBudget: *proxyBud,
			Model:       *proxyMod,
		}
		if err := defaultProxy.Validate(); err != nil {
			return err
		}
	} else if *proxyBud != 0 || *proxySamp != 0 || *proxyMod != "" {
		return fmt.Errorf("-proxy-budget/-proxy-sample/-proxy-model require -proxy")
	}

	knowledge := disarcloud.NewKnowledgeBase()
	if *kbPath != "" {
		if k, err := disarcloud.LoadKnowledgeBase(*kbPath); err == nil {
			knowledge = k
			log.Printf("loaded knowledge base: %d samples", k.Len())
		} else {
			log.Printf("starting a fresh knowledge base (%v)", err)
		}
	}
	opts := []disarcloud.Option{disarcloud.WithKnowledgeBase(knowledge)}
	var coord *disarcloud.ClusterCoordinator
	if *clusterMode {
		coord = disarcloud.NewClusterCoordinator(disarcloud.ClusterConfig{
			KB:           knowledge,
			Launcher:     &execLauncher{joinURL: selfJoinURL(*addr), slots: *workerSlots},
			LocalWorkers: *workers,
		})
		opts = append(opts, disarcloud.WithBlockRunner(coord))
	}
	d, err := disarcloud.NewDeployer(*seed, opts...)
	if err != nil {
		return err
	}
	var scale func(int)
	if coord != nil {
		// The elastic controller's worker target also scales the cluster's
		// launcher-managed worker processes.
		scale = coord.ProcessScaler()
	}
	svcOpts, err := pool.serviceOptions(d, scale)
	if err != nil {
		return err
	}
	svc, err := disarcloud.NewService(d, svcOpts...)
	if err != nil {
		return err
	}

	var cl *clusterState
	if coord != nil {
		cl = newClusterState(coord, *selfURL, peers)
	}
	var defaultTiers []disarcloud.Tier
	if *spot {
		defaultTiers = disarcloud.AllTiers()
	}
	srv := newFrontDoor(*addr, newHandler(svc, d, *seed, defaultProxy, cl, defaultTiers, *maxCost), frontDoorReadHeaderTimeout)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("disard listening on %s (%d workers)", *addr, *workers)
	if coord != nil {
		if *spawn > 0 {
			coord.ScaleTo(*spawn)
			log.Printf("cluster: spawned %d worker processes", *spawn)
		}
		go gossipKB(ctx, coord, d, peers, *gossipEvery)
	}

	select {
	case err := <-errCh:
		svc.Close()
		if coord != nil {
			coord.StopWorkers()
		}
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down")
	// Close the service first: it cancels live jobs, so handlers blocked on
	// ?wait=1 results or progress streams return and their connections go
	// idle — otherwise Shutdown would always burn its full deadline.
	svc.Close()
	if coord != nil {
		coord.StopWorkers()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	if *kbPath != "" {
		if err := d.KB().SaveFile(*kbPath); err != nil {
			return err
		}
		log.Printf("knowledge base saved to %s (%d samples)", *kbPath, d.KB().Len())
	}
	return nil
}

// frontDoorReadHeaderTimeout is how long a client may take to send a
// complete request header before the daemon drops the connection.
const frontDoorReadHeaderTimeout = 10 * time.Second

// newFrontDoor builds the daemon's public HTTP server with the limits a
// listener facing clients needs: a client that opens a connection and
// trickles (or never finishes) its request header is cut off after
// readHeaderTimeout, idle keep-alive connections are reaped, and headers
// are size-bounded. There is deliberately no WriteTimeout: /result?wait=1
// and the progress streams hold a response open for as long as a job runs.
func newFrontDoor(addr string, h http.Handler, readHeaderTimeout time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
}
