package verify

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"disarcloud/internal/elastic"
)

// ServiceModel is the verified abstraction of the elastic service: a
// scaling policy — the elastic.Policy the daemon itself steps — composed
// with a Markov arrival process over elastic.Queue's bounded backlog. Its
// soundness caveats, in full:
//
//   - Service times are abstracted to a per-tick completion probability
//     mu = min(1, tick/meanRuntime) per busy worker (geometric job
//     durations with the measured mean), not the true runtime
//     distribution.
//   - The hybrid planner is idealized as a perfect forecaster (Plans holds
//     the planner's target for each phase's true rate); forecast-model
//     error is validated by internal/forecast's backtests, not inside the
//     MDP.
//   - The queue is truncated at MaxQueue, which must be at least the SLA's
//     queue bound so the clamp can only merge already-violating states,
//     never mask a violation.
//   - Deadline pressure (elastic's "deadline" trigger) never fires: the
//     modeled arrival stream carries no per-job deadlines.
type ServiceModel struct {
	Policy   elastic.Policy
	Arrivals ArrivalModel
	// Plans is the planner target each phase's observation carries, one per
	// arrival phase; nil means no planner.
	Plans []int
	// Tick is the control period; one arrival-model interval is one tick.
	Tick time.Duration
	// MeanRuntimeSeconds is the mean per-job worker occupancy.
	MeanRuntimeSeconds float64
	// InitialWorkers is the pool size at tick zero.
	InitialWorkers int
	// MaxQueue truncates the jobs-in-system count.
	MaxQueue int
	// MaxStates caps state enumeration (0 selects DefaultMaxStates).
	MaxStates int
}

// Enumeration and queue-truncation bounds.
const (
	DefaultMaxStates = 400_000
	maxMaxStates     = 2_000_000
	maxModelQueue    = 4096
	maxModelWorkers  = 4096
)

func (m ServiceModel) validate() error {
	if m.Policy == nil {
		return errors.New("verify: model needs a policy")
	}
	if err := m.Arrivals.Validate(); err != nil {
		return err
	}
	if m.Plans != nil && len(m.Plans) != len(m.Arrivals.Rates) {
		return fmt.Errorf("verify: %d planner targets for %d arrival phases", len(m.Plans), len(m.Arrivals.Rates))
	}
	if m.Tick <= 0 {
		return errors.New("verify: control tick must be positive")
	}
	if !(m.MeanRuntimeSeconds > 0) || math.IsInf(m.MeanRuntimeSeconds, 0) {
		return fmt.Errorf("verify: mean runtime %g must be positive and finite", m.MeanRuntimeSeconds)
	}
	if m.InitialWorkers < 1 || m.InitialWorkers > maxModelWorkers {
		return fmt.Errorf("verify: initial workers %d outside [1, %d]", m.InitialWorkers, maxModelWorkers)
	}
	if m.MaxQueue < 1 || m.MaxQueue > maxModelQueue {
		return fmt.Errorf("verify: queue truncation %d outside [1, %d]", m.MaxQueue, maxModelQueue)
	}
	if m.MaxStates < 0 || m.MaxStates > maxMaxStates {
		return fmt.Errorf("verify: state cap %d outside [0, %d]", m.MaxStates, maxMaxStates)
	}
	return nil
}

// mdpState is the full composed state: policy internals, pool size, arrival
// phase, jobs in system. It is the map key during enumeration and the sort
// key for the canonical ordering.
type mdpState struct {
	pol elastic.State
	w   int32
	ph  int32
	q   int32
}

func stateLess(a, b mdpState) bool {
	for _, f := range [...][2]int64{
		{a.pol.SinceUp, b.pol.SinceUp},
		{a.pol.SinceDown, b.pol.SinceDown},
		{a.pol.Low, b.pol.Low},
		{a.pol.Shed, b.pol.Shed},
		{a.pol.PrevRate, b.pol.PrevRate},
		{int64(a.w), int64(b.w)},
		{int64(a.ph), int64(b.ph)},
	} {
		if f[0] != f[1] {
			return f[0] < f[1]
		}
	}
	return a.q < b.q
}

// MDP is the built composition: a finite Markov chain over the reachable
// composed states (the policy is deterministic, so the decision process
// collapses to a chain), canonically ordered so the same model always
// yields the same chain bit for bit, plus the per-state metadata the
// property analyses read.
type MDP struct {
	Chain *Chain
	// Init is the initial distribution over states.
	Init []float64
	// Workers and Target are the pool size each state observes and the pool
	// size its policy decision selects; Queue and Phase are the jobs in
	// system and the arrival phase.
	Workers []int32
	Target  []int32
	Queue   []int32
	Phase   []int32
	// Tick and MaxQueue echo the model for the analyses.
	Tick     time.Duration
	MaxQueue int
}

// Build enumerates the reachable composed state space breadth-first,
// canonically reorders it, and assembles the transition chain.
//
// One transition is one control tick of elastic.Queue's recursion with the
// sampled quantities replaced by their distributions: the policy observes
// (queue, pool, phase rate, phase plan) and decides the next pool size; the
// current phase emits a truncated-Poisson arrival count; each busy worker
// of the new pool completes its job with probability mu; the queue is
// clamped to [0, MaxQueue]; the phase advances.
func Build(m ServiceModel) (*MDP, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	maxStates := m.MaxStates
	if maxStates == 0 {
		maxStates = DefaultMaxStates
	}
	queue := elastic.NewQueue(m.Tick.Seconds(), m.MeanRuntimeSeconds, m.MaxQueue)

	// Per-phase arrival rows, and per-busy-count completion rows filled in
	// as decisions select pools.
	arr := make([][]float64, len(m.Arrivals.Rates))
	for ph, rate := range m.Arrivals.Rates {
		arr[ph] = arrivalPMF(rate)
	}
	binom := make([][]float64, m.MaxQueue+1)

	// Breadth-first discovery. Successor rows are recorded against
	// discovery-order ids and remapped after the canonical sort, so the
	// final chain is independent of discovery order by construction.
	index := make(map[mdpState]int32, 1024)
	var states []mdpState
	var frontier []int32
	intern := func(s mdpState) (int32, error) {
		if id, ok := index[s]; ok {
			return id, nil
		}
		if len(states) >= maxStates {
			return 0, fmt.Errorf("verify: reachable state space exceeds the cap %d (shrink MaxQueue, the phase grid, or cooldowns)", maxStates)
		}
		id := int32(len(states))
		index[s] = id
		states = append(states, s)
		frontier = append(frontier, id)
		return id, nil
	}

	polInit := m.Policy.Init()
	for ph, p := range m.Arrivals.Init {
		if p == 0 {
			continue
		}
		if _, err := intern(mdpState{pol: polInit, w: int32(m.InitialWorkers), ph: int32(ph), q: 0}); err != nil {
			return nil, err
		}
	}

	rows := make([][]Edge, 0, 1024)
	targets := make([]int32, 0, 1024)
	qdist := make([]float64, m.MaxQueue+1)
	for cursor := 0; cursor < len(frontier); cursor++ {
		id := frontier[cursor]
		s := states[id]
		obs := elastic.Backlog(int(s.q), int(s.w))
		obs.RatePerTick = m.Arrivals.Rates[s.ph]
		if m.Plans != nil {
			obs.Plan = m.Plans[s.ph]
		}
		pol2, target, _ := m.Policy.Step(s.pol, obs)
		if target < 0 || target > maxModelWorkers {
			return nil, fmt.Errorf("verify: policy %q decided pool %d outside [0, %d]", m.Policy.Name(), target, maxModelWorkers)
		}
		busy := queue.Busy(int(s.q), target)
		if binom[busy] == nil {
			binom[busy] = binomialPMF(busy, queue.Mu)
		}
		// Queue-change convolution: arrivals from the current phase, then
		// completions from the new pool, accumulated in ascending (a, c)
		// order into a dense next-queue row.
		for i := range qdist {
			qdist[i] = 0
		}
		for a, pa := range arr[s.ph] {
			if pa == 0 {
				continue
			}
			for c, pc := range binom[busy] {
				if pc == 0 {
					continue
				}
				qdist[queue.Next(int(s.q), a, c)] += pa * pc
			}
		}
		var edges []Edge
		for q2, pq := range qdist {
			if pq == 0 {
				continue
			}
			for ph2, pt := range m.Arrivals.Trans[s.ph] {
				if pt == 0 {
					continue
				}
				to, err := intern(mdpState{pol: pol2, w: int32(target), ph: int32(ph2), q: int32(q2)})
				if err != nil {
					return nil, err
				}
				edges = append(edges, Edge{To: int(to), P: pq * pt})
			}
		}
		rows = append(rows, edges)
		targets = append(targets, int32(target))
	}

	// Canonical relabeling: sort states by (policy state, pool, phase,
	// queue) and remap every edge.
	n := len(states)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return stateLess(states[order[a]], states[order[b]]) })
	newID := make([]int32, n)
	for rank, old := range order {
		newID[old] = int32(rank)
	}
	canon := make([][]Edge, n)
	for old, row := range rows {
		remapped := make([]Edge, len(row))
		for k, e := range row {
			remapped[k] = Edge{To: int(newID[e.To]), P: e.P}
		}
		canon[newID[old]] = remapped
	}
	chain, err := NewChain(canon)
	if err != nil {
		return nil, err
	}

	mdp := &MDP{
		Chain:    chain,
		Init:     make([]float64, n),
		Workers:  make([]int32, n),
		Target:   make([]int32, n),
		Queue:    make([]int32, n),
		Phase:    make([]int32, n),
		Tick:     m.Tick,
		MaxQueue: m.MaxQueue,
	}
	for rank, old := range order {
		s := states[old]
		mdp.Workers[rank] = s.w
		mdp.Queue[rank] = s.q
		mdp.Phase[rank] = s.ph
		mdp.Target[rank] = targets[old]
	}
	for ph, p := range m.Arrivals.Init {
		if p == 0 {
			continue
		}
		mdp.Init[newID[index[mdpState{pol: polInit, w: int32(m.InitialWorkers), ph: int32(ph), q: 0}]]] = p
	}
	return mdp, nil
}

// Properties are the exact verified quantities of one (policy, arrival
// model, horizon) composition.
type Properties struct {
	// PViolation is P(jobs in system >= QueueBound within Horizon ticks).
	PViolation float64 `json:"p_violation"`
	// ExpectedWorkerSeconds is the expected billed worker-seconds over the
	// horizon — the cost axis of the Pareto sweep.
	ExpectedWorkerSeconds float64 `json:"expected_worker_seconds"`
	// ExpectedResizes is the expected number of pool-size changes over the
	// horizon — resize churn (flapping).
	ExpectedResizes float64 `json:"expected_resizes"`
	QueueBound      int     `json:"queue_bound"`
	Horizon         int     `json:"horizon_ticks"`
	States          int     `json:"states"`
}

// Analyze computes the three verified properties over the given horizon,
// weighting each start state by the initial distribution with a fixed
// accumulation order.
func (m *MDP) Analyze(queueBound, horizon int) (Properties, error) {
	if queueBound < 1 {
		return Properties{}, errors.New("verify: queue bound must be at least 1")
	}
	if queueBound > m.MaxQueue {
		return Properties{}, fmt.Errorf("verify: queue bound %d exceeds the model's truncation %d — violations would be clamped away", queueBound, m.MaxQueue)
	}
	if horizon < 1 {
		return Properties{}, errors.New("verify: horizon must be at least 1 tick")
	}
	n := m.Chain.Len()
	target := make([]bool, n)
	for i := 0; i < n; i++ {
		target[i] = int(m.Queue[i]) >= queueBound
	}
	reach, err := m.Chain.ReachWithin(target, horizon)
	if err != nil {
		return Properties{}, err
	}
	tickSec := m.Tick.Seconds()
	costReward := make([]float64, n)
	churnReward := make([]float64, n)
	for i := 0; i < n; i++ {
		costReward[i] = float64(m.Target[i]) * tickSec
		if m.Target[i] != m.Workers[i] {
			churnReward[i] = 1
		}
	}
	cost, err := m.Chain.AccumulatedReward(costReward, horizon)
	if err != nil {
		return Properties{}, err
	}
	churn, err := m.Chain.AccumulatedReward(churnReward, horizon)
	if err != nil {
		return Properties{}, err
	}
	p := Properties{QueueBound: queueBound, Horizon: horizon, States: n}
	for i, w := range m.Init {
		if w == 0 {
			continue
		}
		p.PViolation += w * reach[i]
		p.ExpectedWorkerSeconds += w * cost[i]
		p.ExpectedResizes += w * churn[i]
	}
	return p, nil
}
