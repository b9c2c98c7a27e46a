// Package disarcloud is a from-scratch reproduction of "Machine
// Learning-Based Elastic Cloud Resource Provisioning in the Solvency II
// Framework" (La Rizza et al., ICDCS 2016): a DISAR-style distributed
// Solvency II valuation engine (nested Monte Carlo + LSMC over
// profit-sharing life portfolios), a simulated EC2/Starcluster substrate,
// six Weka-style regression learners, and the paper's contribution — an
// ML-based transparent deploy system organised as a self-optimizing loop
// that picks the cheapest cloud configuration meeting the regulatory
// deadline (Algorithm 1).
//
// This package is the public API: it re-exports the stable surface of the
// internal packages. The primary entry point is the valuation Service — a
// long-lived front door that accepts concurrent job submissions over one
// shared self-optimizing deployer:
//
//	ctx := context.Background()
//	d, _ := disarcloud.NewDeployer(42)
//	svc, _ := disarcloud.NewService(d, disarcloud.WithWorkers(4))
//	defer svc.Close()
//	p, _ := disarcloud.GeneratePortfolio(7, disarcloud.ItalianCompanySpecs()[0])
//	market := disarcloud.DefaultMarket(p.MaxTerm())
//	id, _ := svc.Submit(ctx, disarcloud.SimulationSpec{
//		Portfolio:   p,
//		Fund:        disarcloud.TypicalItalianFund(6, market),
//		Market:      market,
//		Outer:       1000,
//		Inner:       50,
//		Constraints: disarcloud.Constraints{TmaxSeconds: 900, MaxNodes: 8, Epsilon: 0.05},
//		Seed:        42,
//	})
//	rep, _ := svc.Result(ctx, id)
//	fmt.Println(rep.SCR, rep.Deploy.Choice)
//
// Single valuations can still call Deployer.RunSimulation(ctx, spec)
// directly; the Service adds deadline-aware (earliest-deadline-first)
// queuing, bounded concurrency, cancellation, per-job progress streams and
// status inspection on top. With WithElastic the worker pool autoscales
// from queue and predictor signals (see internal/elastic), and with
// WithAdmissionControl submissions whose predicted completion would bust
// their own deadline are rejected up front. cmd/disard serves the same API
// over HTTP/JSON.
//
// See DESIGN.md for the system architecture (job lifecycle, concurrency
// model, context semantics) and EXPERIMENTS.md for the paper-versus-
// measured record of every table and figure.
package disarcloud

import (
	"disarcloud/internal/actuarial"
	"disarcloud/internal/alm"
	"disarcloud/internal/cloud"
	"disarcloud/internal/cluster"
	"disarcloud/internal/core"
	"disarcloud/internal/eeb"
	"disarcloud/internal/elastic"
	"disarcloud/internal/finmath"
	"disarcloud/internal/forecast"
	"disarcloud/internal/fund"
	"disarcloud/internal/grid"
	"disarcloud/internal/kb"
	"disarcloud/internal/loadgen"
	"disarcloud/internal/policy"
	"disarcloud/internal/provision"
	"disarcloud/internal/proxyval"
	"disarcloud/internal/rl"
	"disarcloud/internal/stochastic"
	"disarcloud/internal/stress"
	"disarcloud/internal/verify"
)

// Liability-side types.
type (
	// Portfolio is a book of representative profit-sharing contracts.
	Portfolio = policy.Portfolio
	// Contract is one representative contract (Eqs. 1-5 mechanics).
	Contract = policy.Contract
	// ContractKind enumerates the supported contract types.
	ContractKind = policy.Kind
	// GeneratorSpec parameterises the synthetic portfolio generator.
	GeneratorSpec = policy.GeneratorSpec
	// Gender selects the mortality table.
	Gender = actuarial.Gender
)

// Contract kinds.
const (
	PureEndowment = policy.PureEndowment
	Endowment     = policy.Endowment
	TermInsurance = policy.TermInsurance
	WholeLife     = policy.WholeLife
	Annuity       = policy.Annuity
)

// Genders.
const (
	Male   = actuarial.Male
	Female = actuarial.Female
)

// Market- and fund-side types.
type (
	// MarketConfig is the joint risk-driver model (Vasicek short rate, GBM
	// equities/currencies, CIR credit intensity).
	MarketConfig = stochastic.Config
	// VasicekParams parameterises the short-rate model.
	VasicekParams = stochastic.VasicekParams
	// GBMParams parameterises an equity or currency index.
	GBMParams = stochastic.GBMParams
	// CIRParams parameterises the credit-intensity process.
	CIRParams = stochastic.CIRParams
	// RiskMatrix is the dense matrix type of the correlation structure.
	RiskMatrix = finmath.Matrix
	// FundConfig describes a segregated fund and its smoothing strategy.
	FundConfig = fund.Config
	// ValuationResult carries BEL, SCR and the one-year value distribution.
	ValuationResult = alm.Result
)

// Cloud-side and provisioning types.
type (
	// InstanceType is one virtualized architecture of the EC2 catalog.
	InstanceType = cloud.InstanceType
	// PerfModel is the calibrated ground-truth performance model.
	PerfModel = cloud.PerfModel
	// CharacteristicParams are the workload features the ML models use.
	CharacteristicParams = eeb.CharacteristicParams
	// Constraints are the Algorithm 1 inputs (Tmax, node bound, epsilon).
	Constraints = provision.Constraints
	// Choice is a selected deploy configuration.
	Choice = provision.Choice
	// KnowledgeBase stores (architecture, nodes, params) -> seconds samples.
	KnowledgeBase = kb.KB
	// Sample is one knowledge-base record.
	Sample = kb.Sample
	// Deployer runs the select -> execute -> record -> retrain loop.
	Deployer = core.Deployer
	// Option customises a Deployer.
	Option = core.Option
	// Report describes one completed deploy.
	Report = core.Report
	// SimulationSpec is a complete valuation request.
	SimulationSpec = core.SimulationSpec
	// SimulationReport is the end-to-end outcome (SCR + deploy record).
	SimulationReport = core.SimulationReport
)

// Service-side types: the concurrent job-submission API.
type (
	// Service is the valuation front door: concurrent job submission over a
	// bounded worker pool sharing one self-optimizing Deployer.
	Service = core.Service
	// ServiceOption customises a Service.
	ServiceOption = core.ServiceOption
	// JobID identifies a submitted valuation job.
	JobID = core.JobID
	// JobStatus is a job's lifecycle state.
	JobStatus = core.JobStatus
	// JobSnapshot is a point-in-time view of a job.
	JobSnapshot = core.JobSnapshot
	// Progress is one grid monitoring event (outer paths completed).
	Progress = grid.Progress
)

// Job lifecycle states.
const (
	JobQueued   = core.JobQueued
	JobRunning  = core.JobRunning
	JobDone     = core.JobDone
	JobFailed   = core.JobFailed
	JobCanceled = core.JobCanceled
)

// Stress-campaign types: the Solvency II standard-formula battery of shocked
// revaluations run as one campaign over the service's worker pool.
type (
	// CampaignSpec fans one base valuation into shocked revaluations.
	CampaignSpec = core.CampaignSpec
	// CampaignID identifies a submitted stress campaign.
	CampaignID = core.CampaignID
	// CampaignSnapshot is a point-in-time view of a campaign.
	CampaignSnapshot = core.CampaignSnapshot
	// CampaignReport carries per-module delta-BEL and the aggregated SCR.
	CampaignReport = core.CampaignReport
	// ModuleResult is the outcome of one shocked revaluation.
	ModuleResult = core.ModuleResult
	// StressModule names one standard-formula stress module.
	StressModule = stress.Module
	// Shock is one stress module: a market transform plus a biometric
	// scaling.
	Shock = stress.Shock
	// SCRBreakdown is the standard-formula aggregation of module charges.
	SCRBreakdown = stress.SCR
	// ScenarioTransform is an exact pathwise market shock.
	ScenarioTransform = stochastic.Transform
	// ScenarioSet is a memoized scenario pool shared across a campaign.
	ScenarioSet = stochastic.Set
	// Biometric scales the decrement assumptions (life stresses).
	Biometric = eeb.Biometric
)

// Standard-formula stress modules.
const (
	ModuleInterestUp   = stress.InterestUp
	ModuleInterestDown = stress.InterestDown
	ModuleEquity       = stress.Equity
	ModuleCurrency     = stress.Currency
	ModuleSpread       = stress.Spread
	ModuleMortality    = stress.Mortality
	ModuleLapse        = stress.Lapse
	ModuleLongevity    = stress.Longevity
)

// LSMC proxy serving tier: uncertainty-gated fast-path valuation with Monte
// Carlo escalation. Attaching a ProxySpec to a SimulationSpec (or a campaign
// Base) routes every block through train -> gate -> escalate instead of the
// plain nested pipeline.
type (
	// ProxySpec configures the proxy tier of a job (training-sample size,
	// error budget, escalation cap, model family).
	ProxySpec = core.ProxySpec
	// ProxyReport is the serving telemetry of one proxied job.
	ProxyReport = core.ProxyReport
	// ProxyStats is the per-block (and merged) serving record: sample sizes,
	// validation error, proxy-vs-escalated counts, realized escalation error.
	ProxyStats = proxyval.Stats
	// ProxyTelemetry is the service-level aggregate over all proxied jobs.
	ProxyTelemetry = core.ProxyTelemetry
)

// Proxy model families.
const (
	ProxyModelForest = proxyval.ModelForest
	ProxyModelPoly   = proxyval.ModelPoly
	ProxyModelLinear = proxyval.ModelLinear
	ProxyModelMLP    = proxyval.ModelMLP
)

// ProxyModels lists the supported proxy model families.
var ProxyModels = proxyval.Models

// MinProxyTrainOuter is the smallest usable proxy training sample (enough
// to leave both a fit set and a non-trivial held-out validation set).
const MinProxyTrainOuter = proxyval.MinTrainOuter

// Stress-campaign construction.
var (
	// StandardFormulaShocks returns the seven standard-formula modules.
	StandardFormulaShocks = stress.StandardFormula
	// LongevityShock returns the optional longevity module.
	LongevityShock = stress.LongevityShock
	// AggregateSCR combines per-module charges with the regulatory
	// correlation matrices.
	AggregateSCR = stress.Aggregate
	// ErrUnknownCampaign is returned for a CampaignID the service does not
	// know.
	ErrUnknownCampaign = core.ErrUnknownCampaign
)

// Elastic control plane: the scaling policies that grow and shrink the
// service's worker pool from load and predictor signals, plus the
// deadline-aware admission control of the EDF scheduler.
type (
	// ElasticConfig parameterises the threshold scaling policies (pool
	// bounds, pressure thresholds, cooldowns, hysteresis).
	ElasticConfig = elastic.Config
	// ScalingEvent is one autoscaler decision with the signals behind it.
	ScalingEvent = core.ScalingEvent
	// RuntimeEstimator predicts a job's runtime for admission control.
	RuntimeEstimator = core.RuntimeEstimator
	// EstimatorFunc adapts a function to RuntimeEstimator.
	EstimatorFunc = core.EstimatorFunc
	// AdmissionError carries the numbers behind an admission rejection.
	AdmissionError = core.AdmissionError
)

// Proactive provisioning: the workload-forecasting subsystem that overlays
// the reactive controller with a feed-forward worker target (hybrid policy:
// max of the two), plus the seeded synthetic load-trace generators the
// forecast quality and scaling policies are evaluated on.
type (
	// ForecastConfig parameterises the forecasting subsystem (recorder
	// window, candidate family, headroom, reselection cadence).
	ForecastConfig = forecast.Config
	// ForecastStatus is a point-in-time view of the forecast subsystem.
	ForecastStatus = core.ForecastStatus
	// Forecaster is a univariate demand model (EWMA, Holt, Holt-Winters,
	// AR over internal/ml's ridge regression).
	Forecaster = forecast.Forecaster
	// ForecastScore is one candidate's rolling-backtest sMAPE.
	ForecastScore = forecast.Score
	// TickerFunc supplies the control loop's time source (tests inject a
	// manual channel for deterministic control-loop tests).
	TickerFunc = core.TickerFunc
	// TraceSpec parameterises one synthetic workload trace.
	TraceSpec = loadgen.Spec
	// TraceKind names a synthetic trace family.
	TraceKind = loadgen.Kind
)

// Synthetic trace families.
const (
	TraceDiurnal = loadgen.Diurnal
	TraceBursty  = loadgen.Bursty
	TraceRamp    = loadgen.Ramp
	TraceFlash   = loadgen.Flash
	TraceMixed   = loadgen.Mixed
	TraceWeekly  = loadgen.Weekly
)

// Forecasting and load generation.
var (
	// WithForecast enables proactive provisioning (requires WithElastic).
	WithForecast = core.WithForecast
	// WithControlTicker replaces the control loop's time source.
	WithControlTicker = core.WithControlTicker
	// GenerateTrace draws a trace's per-interval arrival counts,
	// deterministically in the spec's seed.
	GenerateTrace = loadgen.Generate
	// GenerateTraceWithRates also returns the underlying rate profile,
	// computed once.
	GenerateTraceWithRates = loadgen.GenerateWithRates
	// TraceRates returns a trace's deterministic rate profile.
	TraceRates = loadgen.Rates
	// TraceTotal sums a trace's arrivals.
	TraceTotal = loadgen.Total
	// TraceKindsAll lists every trace family.
	TraceKindsAll = loadgen.Kinds
)

// Policy verification: probabilistic model checking of the scaling
// policies. A VerifyRequest composes a policy configuration with a trace
// spec's Markov arrival model; VerifyPolicy steps the very policy the
// service would run into the exact product chain and computes the
// SLA-violation probability, expected worker-seconds and expected resize
// churn by value iteration (see internal/verify for the soundness caveats
// of the service abstraction).
type (
	// VerifyRequest is one model-checking problem: policy + arrival model
	// + SLA, decoded from JSON by `disard -check`.
	VerifyRequest = verify.Request
	// VerifySLA is the bound being checked: P(queue >= QueueBound within
	// HorizonTicks) <= MaxProbability.
	VerifySLA = verify.SLA
	// VerifyReport is the verdict plus the exact computed properties.
	VerifyReport = verify.Report
)

// Learned autoscaling policy (internal/rl): a tabular Q-learning policy
// trained offline against a deterministic simulator that replays loadgen
// traces through the scheduler's backlog dynamics, shipped as a versioned
// Q-table artifact, installed as the third built-in scaling policy with
// WithLearnedPolicy, and model-checked by the same verifier as the
// threshold policies (a learned VerifyRequest carries the qtable path).
type (
	// QTable is a trained learned-policy artifact: the training spec plus
	// the learned action values; its greedy Step is the policy.
	QTable = rl.Table
)

// QTableVersion is the Q-table artifact format this build reads and writes.
const QTableVersion = rl.TableVersion

var (
	// TrainQTable runs offline Q-learning for the spec; the same spec and
	// seed always produce a byte-identical table.
	TrainQTable = rl.Train
	// DefaultQTableSpec is the shipped training configuration.
	DefaultQTableSpec = rl.DefaultSpec
	// LoadQTable reads a Q-table artifact from disk (strict decode).
	LoadQTable = rl.LoadTableFile
	// WithLearnedPolicy installs a trained Q-table as the control loop's
	// decision layer (requires WithElastic).
	WithLearnedPolicy = core.WithLearnedPolicy
	// VerifyPolicy model-checks one request; an SLA violation is reported
	// as Pass=false, not as an error.
	VerifyPolicy = verify.Check
)

// Service construction.
var (
	// NewService starts a valuation service over a deployer.
	NewService = core.NewService
	// WithWorkers sets the number of concurrently running valuations (the
	// initial pool when elastic).
	WithWorkers = core.WithWorkers
	// WithQueueDepth sets the accepted-but-unstarted job capacity.
	WithQueueDepth = core.WithQueueDepth
	// WithRetention sets how many terminal jobs stay queryable.
	WithRetention = core.WithRetention
	// WithElastic enables the autoscaling control plane.
	WithElastic = core.WithElastic
	// WithElasticTick overrides the control-loop sampling interval.
	WithElasticTick = core.WithElasticTick
	// WithAdmissionControl enables deadline-aware admission over a runtime
	// estimator.
	WithAdmissionControl = core.WithAdmissionControl
	// PredictorEstimator builds a RuntimeEstimator over the deployer's
	// knowledge-base ensemble.
	PredictorEstimator = core.PredictorEstimator
)

// Cost-aware provisioning plane: per-provider price schedules (on-demand,
// reserved-discount and a seeded mean-reverting spot market with Poisson
// revocations), the cost-vs-deadline Pareto selector behind Constraints.Tiers
// and Constraints.MaxCost, and campaign-wide budget accounting. Tier and
// budget choices move money, never valuation bits: the golden SCR is
// byte-identical under every tier mix.
type (
	// Tier is a purchasing tier of the simulated cloud.
	Tier = cloud.Tier
	// PriceSchedule prices the catalog per tier, with a seeded spot-price walk.
	PriceSchedule = cloud.PriceSchedule
	// SpotMarket parameterises the spot price process and revocation rate.
	SpotMarket = cloud.SpotMarket
	// CostReport totals the money side of a job or campaign: billed dollars,
	// the all-on-demand counterfactual, savings, revocations survived, and
	// the budget state when one was set.
	CostReport = core.CostReport
	// BudgetError carries the numbers behind a budget rejection: the cheapest
	// feasible cost and the budget that could not cover it.
	BudgetError = core.BudgetError
	// OverBudgetError is the selector-level form of the same rejection.
	OverBudgetError = provision.OverBudgetError
)

// Purchasing tiers.
const (
	TierOnDemand = cloud.TierOnDemand
	TierReserved = cloud.TierReserved
	TierSpot     = cloud.TierSpot
)

// MinSamplesToTrain is the smallest per-architecture knowledge-base sample
// after which the predictors train — the floor for Deployer.Bootstrap runs.
const MinSamplesToTrain = provision.MinSamplesToTrain

// Cost-plane construction and errors.
var (
	// AllTiers lists every purchasing tier.
	AllTiers = cloud.AllTiers
	// ParseTier maps a tier name ("on-demand", "reserved", "spot") to its Tier.
	ParseTier = cloud.ParseTier
	// DefaultPriceSchedule returns the calibrated per-tier price schedule.
	DefaultPriceSchedule = cloud.DefaultPriceSchedule
	// DefaultSpotMarket returns the calibrated spot market parameters.
	DefaultSpotMarket = cloud.DefaultSpotMarket
	// ErrBudgetRejected means a budget cannot cover the cheapest feasible
	// deploy (or is exhausted); every *BudgetError wraps it.
	ErrBudgetRejected = core.ErrBudgetRejected
	// ErrOverBudget is the selector-level sentinel *OverBudgetError wraps.
	ErrOverBudget = provision.ErrOverBudget
)

// Service errors.
var (
	// ErrServiceClosed is returned by Submit after Close.
	ErrServiceClosed = core.ErrServiceClosed
	// ErrUnknownJob is returned for a JobID the service does not know.
	ErrUnknownJob = core.ErrUnknownJob
	// ErrQueueFull is Submit's backpressure signal: retry later.
	ErrQueueFull = core.ErrQueueFull
	// ErrAdmissionRejected means the scheduler predicted the job cannot meet
	// its deadline given the current backlog; every *AdmissionError wraps it.
	ErrAdmissionRejected = core.ErrAdmissionRejected
	// ErrDegenerateMeasurement flags a non-positive measured execution time.
	ErrDegenerateMeasurement = core.ErrDegenerateMeasurement
)

// Multi-node cluster: the stdlib TCP/HTTP worker transport that runs grid
// engines as separate processes. Workers register with a coordinator and
// execute outer-path slices shipped over the wire; the coordinator
// implements BlockRunner, so a deployer built WithBlockRunner routes every
// type-B valuation through the cluster; knowledge bases replicate between
// coordinators by idempotent merge; scenario sets are cached per node with
// one owner per shard on a consistent-hash ring.
type (
	// ClusterCoordinator owns worker membership, scatters blocks as
	// outer-path slices and re-slices a lost worker's range onto survivors.
	ClusterCoordinator = cluster.Coordinator
	// ClusterConfig parameterises a coordinator (heartbeat cadence, KB,
	// process launcher, local fallback width).
	ClusterConfig = cluster.CoordinatorConfig
	// ClusterWorker is one computing unit as a network service.
	ClusterWorker = cluster.Worker
	// ClusterStatus is the coordinator's point-in-time cluster view.
	ClusterStatus = cluster.Status
	// ClusterWorkerStatus is one membership row of ClusterStatus.
	ClusterWorkerStatus = cluster.WorkerStatus
	// ClusterLauncher starts worker processes for elastic process scaling.
	ClusterLauncher = cluster.Launcher
	// ClusterRing is the consistent-hash ring used for scenario-shard
	// ownership and cross-coordinator job routing.
	ClusterRing = cluster.Ring
	// BlockRunner executes a simulation's type-B blocks; the deployer
	// delegates to it when built WithBlockRunner.
	BlockRunner = core.BlockRunner
	// BlockRunRequest is one BlockRunner invocation.
	BlockRunRequest = core.BlockRunRequest
	// ScenarioRef is the serializable scenario-set recipe that keeps blocks
	// shippable across the cluster.
	ScenarioRef = stochastic.Ref
)

// Cluster construction.
var (
	// NewClusterCoordinator builds a coordinator.
	NewClusterCoordinator = cluster.NewCoordinator
	// NewClusterWorker builds a worker node.
	NewClusterWorker = cluster.NewWorker
	// NewClusterRing builds a consistent-hash ring over the given nodes.
	NewClusterRing = cluster.NewRing
	// WithBlockRunner routes the deployer's valuations through a cluster.
	WithBlockRunner = core.WithBlockRunner
	// WithProcessScaler forwards the elastic worker target to a process
	// scaler (ClusterCoordinator.ProcessScaler).
	WithProcessScaler = core.WithProcessScaler
)

// NewDeployer wires a transparent deploy system rooted at seed.
func NewDeployer(seed uint64, opts ...Option) (*Deployer, error) {
	return core.NewDeployer(seed, opts...)
}

// Deployer options.
var (
	// WithKnowledgeBase warm-starts from an existing knowledge base.
	WithKnowledgeBase = core.WithKnowledgeBase
	// WithCatalog restricts the instance types considered.
	WithCatalog = core.WithCatalog
	// WithRetrainEvery relaxes the retraining cadence for long campaigns.
	WithRetrainEvery = core.WithRetrainEvery
)

// GeneratePortfolio synthesises a portfolio from the spec, deterministically
// in seed.
func GeneratePortfolio(seed uint64, spec GeneratorSpec) (*Portfolio, error) {
	return policy.Generate(finmath.NewRNG(seed), spec)
}

// ItalianCompanySpecs returns the three portfolio archetypes of the paper's
// experimental assessment.
func ItalianCompanySpecs() []GeneratorSpec { return policy.ItalianCompanySpecs() }

// Catalog returns the six EC2 instance types of Section IV.
func Catalog() []InstanceType { return cloud.Catalog() }

// TypeByName looks an instance type up by name.
func TypeByName(name string) (InstanceType, bool) { return cloud.TypeByName(name) }

// DefaultPerfModel returns the calibrated cloud performance model.
func DefaultPerfModel() PerfModel { return cloud.DefaultPerfModel() }

// TypicalItalianFund returns a segregated-fund configuration resembling the
// Italian funds of the paper's era, with the given number of asset sleeves.
func TypicalItalianFund(numAssets int, market MarketConfig) FundConfig {
	return fund.TypicalItalianFund(numAssets, market)
}

// DefaultMarket returns a market model with one equity index, typical
// euro-area rate/credit parameters of the mid-2010s, and the given horizon
// in years.
func DefaultMarket(horizonYears int) MarketConfig {
	return stochastic.Config{
		Horizon:      horizonYears,
		StepsPerYear: 1,
		Rate: stochastic.VasicekParams{
			R0: 0.015, Speed: 0.25, MeanP: 0.03, MeanQ: 0.025, Sigma: 0.009,
		},
		Equities: []stochastic.GBMParams{{S0: 100, Mu: 0.06, Sigma: 0.18}},
		Credit:   stochastic.CIRParams{L0: 0.008, Speed: 0.5, Mean: 0.012, Sigma: 0.03},
	}
}

// LongevityStress returns the Solvency II standard-formula longevity shock
// of a mortality model (a permanent 20% decrease of death probabilities),
// for computing the longevity SCR sub-module on annuity-heavy books.
func LongevityStress(base actuarial.MortalityModel) actuarial.MortalityModel {
	return actuarial.LongevityStress(base)
}

// MortalityStress returns the Solvency II mortality shock (+15% death
// probabilities).
func MortalityStress(base actuarial.MortalityModel) actuarial.MortalityModel {
	return actuarial.MortalityStress(base)
}

// IdentityMatrix returns the n-by-n identity matrix — the starting point for
// building the correlation structure of a MarketConfig.
func IdentityMatrix(n int) *RiskMatrix { return finmath.Identity(n) }

// NewKnowledgeBase returns an empty knowledge base.
func NewKnowledgeBase() *KnowledgeBase { return kb.New() }

// LoadKnowledgeBase reads a knowledge base saved with KnowledgeBase.SaveFile.
func LoadKnowledgeBase(path string) (*KnowledgeBase, error) { return kb.LoadFile(path) }
