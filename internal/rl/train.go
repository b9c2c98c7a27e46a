package rl

import (
	"disarcloud/internal/elastic"
	"disarcloud/internal/finmath"
	"disarcloud/internal/loadgen"
	"disarcloud/internal/ml"
)

// trainSeedStride spaces per-episode trace seeds (a large prime, as the
// verifier's replay harness uses) so no two episodes share a loadgen
// substream.
const trainSeedStride = 1000003

// Train runs offline Q-learning against the deterministic simulator and
// returns the learned table. Episodes cycle through the spec's trace
// families; within an episode the agent steps elastic.Queue, the recursion
// Simulate and internal/verify also run, picks actions epsilon-greedily with
// the exploration rate decaying linearly to a tenth of its initial value,
// and updates Q[s][a] += alpha * (r + gamma * max_a' Q[s'][a'] - Q[s][a]).
// With Spec.Bandit the discount is forced to zero — the contextual-bandit
// baseline that scores actions by immediate reward only.
//
// Everything — trace generation, completion draws, exploration — derives
// from Spec.Seed, so two Train calls with the same spec produce
// byte-identical tables (the determinism contract the freshness test
// pins).
func Train(spec Spec) (*Table, error) {
	t, err := NewTable(spec)
	if err != nil {
		return nil, err
	}
	gamma := spec.Gamma
	if spec.Bandit {
		gamma = 0
	}
	tickSec := spec.TickSeconds()
	queue := elastic.NewQueue(tickSec, spec.MeanRuntimeSeconds(), spec.MaxQueue)
	explore := finmath.NewRNG(spec.Seed ^ 0xe8b7015e)
	for ep := 0; ep < spec.Episodes; ep++ {
		trace := spec.Traces[ep%len(spec.Traces)]
		trace.Seed += uint64(ep) * trainSeedStride
		counts, rates, err := loadgen.GenerateWithRates(trace)
		if err != nil {
			return nil, err
		}
		// Exploration decays linearly from Epsilon to Epsilon/10.
		eps := spec.Epsilon
		if spec.Episodes > 1 {
			eps *= 1 - 0.9*float64(ep)/float64(spec.Episodes-1)
		}
		env := finmath.NewRNG(spec.Seed ^ 0x0e50de ^ uint64(ep)*trainSeedStride)
		st := t.Init()
		// The tick's row, action and successor policy state, handed from
		// the decision to the update.
		var idx, action int
		var st2 elastic.State
		queue.Replay(elastic.Trace{Counts: counts, Rates: rates}, spec.MinWorkers, 0, env,
			func(obs elastic.Obs) int {
				idx = t.StateIndex(st, obs)
				if explore.Float64() < eps {
					action = explore.Intn(spec.NumActions())
				} else {
					action = ml.Argmax(t.Q[idx])
				}
				var target int
				st2, target, _ = t.Apply(st, obs, action)
				return target
			},
			func(tk elastic.Tick) bool {
				reward := -spec.CostWeight * float64(tk.Target) * tickSec
				if tk.Target != tk.Obs.Workers {
					reward -= spec.ChurnWeight
				}
				if tk.Jobs >= spec.QueueBound {
					reward -= spec.SLAWeight
				}
				// The latency penalty charges WAITING jobs — in-system beyond
				// the pool — not jobs in service: a pool sized to its backlog
				// waits nothing, so this term is what teaches the policy to
				// track demand instead of blanket over-provisioning.
				waiting := min(max(tk.Jobs-tk.Target, 0), spec.QueueBound)
				reward -= spec.QueueWeight * float64(waiting) / float64(spec.QueueBound)

				// The successor observation sees the next tick's profile rate
				// — what the policy will actually be shown there.
				next := elastic.Backlog(tk.Jobs, tk.Target)
				next.RatePerTick = rates[min(tk.I+1, len(rates)-1)]
				idx2 := t.StateIndex(st2, next)
				best := t.Q[idx2][ml.Argmax(t.Q[idx2])]
				t.Q[idx][action] += spec.Alpha * (reward + gamma*best - t.Q[idx][action])
				st = st2
				return true
			})
	}
	return t, nil
}
