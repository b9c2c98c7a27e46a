package provision

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"disarcloud/internal/cloud"
	"disarcloud/internal/eeb"
	"disarcloud/internal/finmath"
)

// ErrNoFeasible is returned when no configuration meets the deadline.
var ErrNoFeasible = errors.New("provision: no configuration meets the time constraint")

// ErrOverBudget is returned (wrapped in *OverBudgetError) when deadline-
// feasible configurations exist but none fits the MaxCost budget.
var ErrOverBudget = errors.New("provision: no feasible configuration within budget")

// OverBudgetError reports a budget-infeasible selection together with the
// cheapest deadline-feasible price, so callers can tell the user what
// budget would have worked. Waiting does not help — unlike admission
// backpressure there is no Retry-After story for money.
type OverBudgetError struct {
	// CheapestUSD is the lowest conservative billed estimate among
	// deadline-feasible candidates.
	CheapestUSD float64
	// MaxCostUSD is the budget that was offered.
	MaxCostUSD float64
}

// Error implements error.
func (e *OverBudgetError) Error() string {
	return fmt.Sprintf("provision: cheapest feasible deploy costs $%.2f, budget is $%.2f", e.CheapestUSD, e.MaxCostUSD)
}

// Unwrap lets errors.Is(err, ErrOverBudget) work.
func (e *OverBudgetError) Unwrap() error { return ErrOverBudget }

// Constraints are the user-side inputs to Algorithm 1.
type Constraints struct {
	// TmaxSeconds is the Solvency II-driven deadline for the simulation.
	TmaxSeconds float64
	// MaxNodes bounds the number of VMs explored (the algorithm's N = [1, max]).
	MaxNodes int
	// Epsilon is the exploration probability: with chance Epsilon a random
	// feasible configuration is selected instead of the cheapest.
	Epsilon float64
	// MaxCost caps the conservative billed estimate of the selected deploy
	// in dollars; 0 means unbounded. Campaign submissions share one budget
	// across modules, so the cap a given Select call sees is usually the
	// campaign's remaining balance, not the original figure.
	MaxCost float64
	// Tiers lists the purchase tiers the selector may enumerate, in
	// preference order. Empty means on-demand only — the pre-cost-plane
	// behaviour, preserved bit-for-bit.
	Tiers []cloud.Tier
}

// Validate reports whether the constraints are admissible.
func (c Constraints) Validate() error {
	if !(c.TmaxSeconds > 0) || math.IsInf(c.TmaxSeconds, 1) {
		return errors.New("provision: Tmax must be positive and finite")
	}
	if c.MaxNodes <= 0 {
		return errors.New("provision: MaxNodes must be positive")
	}
	if !(c.Epsilon >= 0 && c.Epsilon <= 1) {
		return errors.New("provision: epsilon outside [0,1]")
	}
	if !(c.MaxCost >= 0) || math.IsInf(c.MaxCost, 1) {
		return errors.New("provision: MaxCost must be finite and non-negative")
	}
	for _, t := range c.Tiers {
		if !t.Valid() {
			return fmt.Errorf("provision: invalid tier %v", t)
		}
	}
	return nil
}

// EffectiveTiers returns the tier set Select enumerates: the configured
// list, or on-demand alone when none was given.
func (c Constraints) EffectiveTiers() []cloud.Tier {
	if len(c.Tiers) == 0 {
		return []cloud.Tier{cloud.TierOnDemand}
	}
	return c.Tiers
}

// Slot is one homogeneous group of VMs in a deploy.
type Slot struct {
	Type  cloud.InstanceType
	Nodes int
}

// Choice is a selected deploy configuration.
type Choice struct {
	// Slots has one entry for homogeneous deploys (the paper's setting) and
	// two for the heterogeneous extension (the paper's future work).
	Slots []Slot
	// Tier is the purchase tier the deploy runs under.
	Tier cloud.Tier
	// PredictedSeconds is the ensemble-predicted execution time. For spot
	// candidates it includes the revocation-probability-weighted re-slice
	// penalty: spot is slower in expectation, not just cheaper.
	PredictedSeconds float64
	// PredictedCost is the expected pro-rata cost in dollars at the tier's
	// expected hourly price: hour_cost * time (Algorithm 1).
	PredictedCost float64
	// PredictedBilledUSD is the conservative hour-rounded reservation the
	// budget accountant holds for this deploy: predicted time plus headroom,
	// billed at the tier's expected rate, minimum one hour.
	PredictedBilledUSD float64
	// Explored is true when the epsilon-greedy branch picked a random
	// feasible configuration.
	Explored bool
}

// Primary returns the first slot (the whole deploy when homogeneous).
func (c Choice) Primary() Slot { return c.Slots[0] }

// TotalNodes returns the VM count across slots.
func (c Choice) TotalNodes() int {
	n := 0
	for _, s := range c.Slots {
		n += s.Nodes
	}
	return n
}

// String implements fmt.Stringer.
func (c Choice) String() string {
	s := ""
	for i, slot := range c.Slots {
		if i > 0 {
			s += "+"
		}
		s += fmt.Sprintf("%dx%s", slot.Nodes, slot.Type.Name)
	}
	if c.Tier != cloud.TierOnDemand {
		s += " " + c.Tier.String()
	}
	return fmt.Sprintf("%s (pred %.0fs, $%.3f)", s, c.PredictedSeconds, c.PredictedCost)
}

// Selector implements Algorithm 1 over a predictor and an instance catalog.
//
// Select, Candidates and Pick are safe for concurrent use: the exploration
// RNG is not, so its draws are serialised by an internal mutex. The Deployer
// calls Candidates from every deploy at once, outside its own lock, and
// orders only the Pick draws; the selector is also exposed through
// Deployer.Selector(), where Select may be reached from many goroutines.
type Selector struct {
	pred    Predictor
	catalog []cloud.InstanceType

	// schedule prices candidates across tiers: the calibrated default
	// schedule, which the simulated provider bills against too.
	schedule *cloud.PriceSchedule

	// rngMu guards rng: finmath.RNG is not safe for concurrent use, and an
	// unguarded epsilon-greedy draw under concurrent Select calls is a data
	// race on the generator state.
	rngMu sync.Mutex
	rng   *finmath.RNG

	// Heterogeneous enables the future-work extension: two-slot deploys
	// mixing distinct instance types, with work split proportionally to
	// each slot's predicted throughput.
	Heterogeneous bool
}

// NewSelector builds a selector over the given catalog (nil = full catalog).
func NewSelector(pred Predictor, catalog []cloud.InstanceType, rng *finmath.RNG) (*Selector, error) {
	if pred == nil {
		return nil, errors.New("provision: nil predictor")
	}
	if rng == nil {
		return nil, errors.New("provision: nil rng")
	}
	if catalog == nil {
		catalog = cloud.Catalog()
	}
	if len(catalog) == 0 {
		return nil, errors.New("provision: empty catalog")
	}
	return &Selector{pred: pred, catalog: catalog, rng: rng, schedule: cloud.DefaultPriceSchedule()}, nil
}

// reservationHeadroomFactor / reservationHeadroomSeconds pad the predicted
// duration before hour-rounding it into a budget reservation: predictions
// err both ways and boot time is not in the prediction at all, so the
// accountant holds 25% slack plus ten boot-ish minutes and releases the
// difference at settlement.
const (
	reservationHeadroomFactor  = 1.25
	reservationHeadroomSeconds = 600
)

// BilledEstimate is the conservative hour-rounded dollar reservation for a
// choice under the given schedule: headroom-padded predicted duration at
// the choice's tier, summed across slots, minimum one billing hour each.
// The budget accountant reserves this figure before a deploy and settles
// to the actual bill after.
func BilledEstimate(ps *cloud.PriceSchedule, ch Choice) float64 {
	secs := ch.PredictedSeconds*reservationHeadroomFactor + reservationHeadroomSeconds
	total := 0.0
	for _, slot := range ch.Slots {
		hours := math.Ceil(secs / 3600)
		if hours < 1 {
			hours = 1
		}
		total += hours * ps.ExpectedHourlyUSD(slot.Type, ch.Tier) * float64(slot.Nodes)
	}
	return total
}

// Candidates enumerates every feasible configuration for the workload: all
// (architecture, node count, tier) triples whose ensemble-predicted time —
// inflated, for spot, by the revocation-probability-weighted re-slice
// penalty — is within Tmax, each annotated with its expected cost and its
// conservative billed reservation. Architectures without trained models
// are skipped; if every architecture is untrained the returned error wraps
// ErrUntrained. The enumeration honours ctx: a cancelled context aborts
// mid-catalog and returns ctx.Err().
func (s *Selector) Candidates(ctx context.Context, f eeb.CharacteristicParams, c Constraints) ([]Choice, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ps := s.schedule
	tiers := c.EffectiveTiers()
	var out []Choice
	trainedAny := false
	for _, it := range s.catalog {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for n := 1; n <= c.MaxNodes; n++ {
			secs, err := s.pred.PredictSeconds(it.Name, n, f)
			if errors.Is(err, ErrUntrained) {
				break // no model for this architecture at any n
			}
			if err != nil {
				return nil, err
			}
			trainedAny = true
			for _, tier := range tiers {
				tierSecs := secs
				if tier == cloud.TierSpot {
					tierSecs = spotInflatedSeconds(secs, n, ps.Spot.RevocationsPerHour)
				}
				if tierSecs > c.TmaxSeconds {
					continue
				}
				ch := Choice{
					Slots:            []Slot{{Type: it, Nodes: n}},
					Tier:             tier,
					PredictedSeconds: tierSecs,
					PredictedCost:    ps.ProRataCost(it, tier, n, tierSecs),
				}
				ch.PredictedBilledUSD = BilledEstimate(ps, ch)
				out = append(out, ch)
			}
		}
	}
	if s.Heterogeneous {
		het, err := s.heterogeneousCandidates(ctx, f, c)
		if err != nil {
			return nil, err
		}
		out = append(out, het...)
	}
	if !trainedAny {
		return nil, fmt.Errorf("%w: all architectures", ErrUntrained)
	}
	return out, nil
}

// spotInflatedSeconds stretches a spot candidate's predicted duration by
// the expected re-slice cost of revocations: each event loses one VM's
// share of the remaining work onto n-1 survivors (the whole remainder for
// a single VM). The inflation is conservative — it charges the full
// remaining duration per expected event rather than the half an average
// event position would suggest — because a deadline miss costs an SLA
// breach while pessimism merely forgoes a marginal candidate.
func spotInflatedSeconds(secs float64, n int, revsPerHour float64) float64 {
	if revsPerHour <= 0 || secs <= 0 {
		return secs
	}
	expectedEvents := revsPerHour * secs / 3600
	survivors := float64(n - 1)
	if survivors < 1 {
		survivors = 1
	}
	return secs * (1 + expectedEvents/survivors)
}

// heterogeneousCandidates enumerates two-slot mixes of distinct types. The
// combined time models a proportional split of the outer scenarios: each
// slot processes work at rate 1/t_slot, so the mix finishes in
// 1/(1/tA + 1/tB) — both slots run for the full duration and are billed for
// it.
func (s *Selector) heterogeneousCandidates(ctx context.Context, f eeb.CharacteristicParams, c Constraints) ([]Choice, error) {
	var out []Choice
	for i, a := range s.catalog {
		for _, b := range s.catalog[i+1:] {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for na := 1; na < c.MaxNodes; na++ {
				ta, errA := s.pred.PredictSeconds(a.Name, na, f)
				if errors.Is(errA, ErrUntrained) {
					break
				}
				if errA != nil {
					return nil, errA
				}
				for nb := 1; na+nb <= c.MaxNodes; nb++ {
					tb, errB := s.pred.PredictSeconds(b.Name, nb, f)
					if errors.Is(errB, ErrUntrained) {
						break
					}
					if errB != nil {
						return nil, errB
					}
					t := 1 / (1/ta + 1/tb)
					if t > c.TmaxSeconds {
						continue
					}
					cost := cloud.ProRataCost(a, na, t) + cloud.ProRataCost(b, nb, t)
					// Mixed-type deploys stay on-demand: the re-slice
					// penalty model assumes interchangeable survivors.
					ch := Choice{
						Slots:            []Slot{{Type: a, Nodes: na}, {Type: b, Nodes: nb}},
						Tier:             cloud.TierOnDemand,
						PredictedSeconds: t,
						PredictedCost:    cost,
					}
					ch.PredictedBilledUSD = BilledEstimate(s.schedule, ch)
					out = append(out, ch)
				}
			}
		}
	}
	return out, nil
}

// Frontier returns the cost-vs-deadline Pareto frontier of the given
// candidates, ordered cheapest-first: each successive point costs more and
// finishes strictly sooner. The ordering among equal-cost candidates is
// stable in the input order, so the frontier's first element is exactly
// the candidate Algorithm 1's cheapest-first scan would pick.
func Frontier(cands []Choice) []Choice {
	if len(cands) == 0 {
		return nil
	}
	byCost := make([]Choice, len(cands))
	copy(byCost, cands)
	// Stability is load-bearing: it keeps equal-cost candidates in input
	// order, so the frontier's first element is exactly the candidate the
	// original cheapest-first scan would pick.
	sort.SliceStable(byCost, func(i, j int) bool {
		return byCost[i].PredictedCost < byCost[j].PredictedCost
	})
	out := byCost[:0]
	bestSecs := math.Inf(1)
	for _, ch := range byCost {
		if len(out) > 0 && ch.PredictedSeconds >= bestSecs {
			continue // dominated: costs at least as much, not faster
		}
		out = append(out, ch)
		bestSecs = ch.PredictedSeconds
	}
	return out
}

// Select runs the cost-aware Algorithm 1: enumerate (type, nodes, tier)
// candidates inside Tmax, drop those whose conservative billed reservation
// exceeds the MaxCost budget, then pick the cheapest point of the Pareto
// frontier — or, with probability epsilon, a uniformly random affordable
// candidate (exploration, which enlarges the knowledge base and reduces
// false positives on the expected execution time). It is Candidates, the
// predictions, followed by Pick, the decision.
//
// Deadline-feasible but budget-infeasible workloads return an
// *OverBudgetError naming the cheapest feasible price; no candidates at
// all returns ErrNoFeasible.
func (s *Selector) Select(ctx context.Context, f eeb.CharacteristicParams, c Constraints) (Choice, error) {
	cands, err := s.Candidates(ctx, f, c)
	if err != nil {
		return Choice{}, err
	}
	return s.Pick(cands, c)
}

// Pick is the decision half of Select over candidates already enumerated:
// the MaxCost filter, the two exploration draws, the frontier. Of c it
// reads only MaxCost and Epsilon, so a caller may enumerate Candidates
// before it knows the budget — the Deployer does, outside its mutex — and
// apply the balance of the moment here. An empty cands is ErrNoFeasible and
// draws nothing.
func (s *Selector) Pick(cands []Choice, c Constraints) (Choice, error) {
	if len(cands) == 0 {
		return Choice{}, ErrNoFeasible
	}
	affordable := cands
	if c.MaxCost > 0 {
		affordable = make([]Choice, 0, len(cands))
		cheapest := math.Inf(1)
		for _, ch := range cands {
			if ch.PredictedBilledUSD < cheapest {
				cheapest = ch.PredictedBilledUSD
			}
			if ch.PredictedBilledUSD <= c.MaxCost {
				affordable = append(affordable, ch)
			}
		}
		if len(affordable) == 0 {
			return Choice{}, &OverBudgetError{CheapestUSD: cheapest, MaxCostUSD: c.MaxCost}
		}
	}
	s.rngMu.Lock()
	explore := s.rng.Float64() < c.Epsilon
	pick := 0
	if explore {
		pick = s.rng.Intn(len(affordable))
	}
	s.rngMu.Unlock()
	if explore {
		ch := affordable[pick]
		ch.Explored = true
		return ch, nil
	}
	return Frontier(affordable)[0], nil
}

// SelectFastest returns the feasibility-unconstrained minimum-time
// configuration — the fallback when no candidate meets Tmax and the
// baseline for the paper's final comparison against the "higher-end VM".
func (s *Selector) SelectFastest(ctx context.Context, f eeb.CharacteristicParams, maxNodes int) (Choice, error) {
	cands, err := s.Candidates(ctx, f, Constraints{
		TmaxSeconds: 1e18, MaxNodes: maxNodes, Epsilon: 0,
	})
	if err != nil {
		return Choice{}, err
	}
	if len(cands) == 0 {
		return Choice{}, ErrNoFeasible
	}
	best := cands[0]
	for _, ch := range cands[1:] {
		if ch.PredictedSeconds < best.PredictedSeconds {
			best = ch
		}
	}
	return best, nil
}
