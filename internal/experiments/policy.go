package experiments

import (
	"fmt"
	"io"
	"time"

	"disarcloud/internal/elastic"
	"disarcloud/internal/loadgen"
	"disarcloud/internal/rl"
	"disarcloud/internal/verify"
)

// PolicyComparison is the reactive-vs-hybrid-vs-learned experiment: every
// policy family replayed over the same seeded traces through the same
// deterministic backlog simulator (internal/rl's, over the elastic.Queue
// recursion internal/verify models), scored on p95 job latency,
// worker-seconds and resize churn. No wall clock anywhere, so the table is
// bit-reproducible under the fixed seed — rerunning it reproduces every
// digit.
type PolicyComparison struct {
	// Table is the learned policy under comparison.
	Table *rl.Table
	Rows  []PolicyRow
}

// PolicyRow is one (trace family, policy) cell.
type PolicyRow struct {
	Trace  string
	Policy string
	Result rl.SimResult
}

// policyEvalSeedOffset moves evaluation traces off the training seeds: the
// learned policy is scored on arrival draws it never saw, same as the
// threshold policies.
const policyEvalSeedOffset = 7700

// RunPolicyComparison replays the trained table's own trace families
// (fresh evaluation seeds) under reactive, hybrid and learned policies.
// The threshold policies run the default elastic configuration over the
// table's pool bounds at the table's tick, the hybrid's planner reading the
// trace's true rate — the same idealized forecast the verifier bounds.
func RunPolicyComparison(table *rl.Table) (*PolicyComparison, error) {
	if err := table.Validate(); err != nil {
		return nil, err
	}
	spec := table.Spec
	tick := time.Duration(spec.TickMS) * time.Millisecond
	cfg := elastic.Config{MinWorkers: spec.MinWorkers, MaxWorkers: spec.MaxWorkers}
	reactive, err := elastic.NewReactive(cfg, tick)
	if err != nil {
		return nil, err
	}
	hybrid, err := elastic.NewHybrid(cfg, tick)
	if err != nil {
		return nil, err
	}
	out := &PolicyComparison{Table: table}
	for _, trace := range spec.Traces {
		trace.Seed += policyEvalSeedOffset
		counts, rates, err := loadgen.GenerateWithRates(trace)
		if err != nil {
			return nil, err
		}
		// Every policy sees the same trace; only the hybrid reads its plans.
		tr := elastic.Trace{Counts: counts, Rates: rates,
			Plans: verify.PerfectPlans(rates, 0, tick, spec.MeanRuntimeSeconds())}
		for _, pol := range []elastic.Policy{reactive, hybrid, table} {
			res, err := rl.Simulate(tr, pol, rl.SimConfig{
				TickMS:         spec.TickMS,
				MeanRuntimeMS:  spec.MeanRuntimeMS,
				MaxQueue:       spec.MaxQueue,
				QueueBound:     spec.QueueBound,
				InitialWorkers: spec.MinWorkers,
				Seed:           trace.Seed,
			})
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, PolicyRow{Trace: string(trace.Kind), Policy: pol.Name(), Result: res})
		}
	}
	return out, nil
}

// row finds one cell.
func (c *PolicyComparison) row(trace, policy string) (PolicyRow, bool) {
	for _, r := range c.Rows {
		if r.Trace == trace && r.Policy == policy {
			return r, true
		}
	}
	return PolicyRow{}, false
}

// LearnedWins lists the trace families where the learned policy beats the
// hybrid on p95 latency at equal-or-lower worker-seconds — the acceptance
// bar for shipping a learned table.
func (c *PolicyComparison) LearnedWins() []string {
	var wins []string
	seen := map[string]bool{}
	for _, r := range c.Rows {
		if seen[r.Trace] {
			continue
		}
		seen[r.Trace] = true
		l, okL := c.row(r.Trace, "learned")
		h, okH := c.row(r.Trace, "hybrid")
		if okL && okH &&
			l.Result.P95LatencyTicks < h.Result.P95LatencyTicks &&
			l.Result.WorkerSeconds <= h.Result.WorkerSeconds {
			wins = append(wins, r.Trace)
		}
	}
	return wins
}

// Print renders the comparison table.
func (c *PolicyComparison) Print(w io.Writer) {
	fmt.Fprintln(w, "Scaling-policy comparison (deterministic replay through the backlog simulator)")
	fmt.Fprintf(w, "pool %d..%d workers, tick %dms, mean job %gms; fixed seeds, bit-reproducible\n\n",
		c.Table.Spec.MinWorkers, c.Table.Spec.MaxWorkers, c.Table.Spec.TickMS, c.Table.Spec.MeanRuntimeMS)
	fmt.Fprintf(w, "%-9s %-9s %7s %7s %7s %10s %8s %6s %5s\n",
		"trace", "policy", "p50", "p95", "max", "worker-sec", "resizes", "viol", "jobs")
	prev := ""
	for _, r := range c.Rows {
		if prev != "" && r.Trace != prev {
			fmt.Fprintln(w)
		}
		prev = r.Trace
		fmt.Fprintf(w, "%-9s %-9s %7.2f %7.2f %7d %10.1f %8d %6d %5d\n",
			r.Trace, r.Policy,
			r.Result.P50LatencyTicks, r.Result.P95LatencyTicks, r.Result.MaxLatencyTicks,
			r.Result.WorkerSeconds, r.Result.Resizes, r.Result.ViolationTicks, r.Result.Jobs)
	}
	fmt.Fprintln(w)
	wins := c.LearnedWins()
	if len(wins) == 0 {
		fmt.Fprintln(w, "learned policy beats hybrid p95 at <= worker-seconds on: (none)")
		return
	}
	fmt.Fprintf(w, "learned policy beats hybrid p95 at <= worker-seconds on: %v\n", wins)
}
