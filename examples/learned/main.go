// Learned: the offline-trained Q-learning autoscaling policy, end to end.
// Part one loads the shipped Q-table artifact (training one from the
// default spec if the file is absent) and replays all trace families
// through the deterministic backlog simulator under the reactive, hybrid
// and learned policies — the learned table should cut the hybrid's p95
// latency at equal or lower worker-seconds on every family. Part two
// model-checks the same table exactly (internal/verify enumerates the
// table's own Step) against the shipped SLA, the gate CI runs on every push. Part
// three installs the table as a live service's scaling policy and reads the
// active policy and its hyperparameters back off the autoscaler status —
// what GET /v1/autoscaler serves on the daemon.
package main

import (
	"fmt"
	"log"
	"os"

	"disarcloud"
	"disarcloud/internal/experiments"
)

func main() {
	const artifact = "testdata/qtable_v1.json"
	table, err := disarcloud.LoadQTable(artifact)
	if err != nil {
		if !os.IsNotExist(err) {
			log.Fatal(err)
		}
		fmt.Printf("no artifact at %s; training the default spec (a few seconds)...\n\n", artifact)
		if table, err = disarcloud.TrainQTable(disarcloud.DefaultQTableSpec()); err != nil {
			log.Fatal(err)
		}
	}
	spec := table.Spec
	fmt.Printf("Q-table v%d: %d states x %d actions, pool %d..%d, trained %d episodes over %d trace families\n\n",
		table.Version, spec.NumStates(), spec.NumActions(), spec.MinWorkers, spec.MaxWorkers,
		spec.Episodes, len(spec.Traces))

	cmp, err := experiments.RunPolicyComparison(table)
	if err != nil {
		log.Fatal(err)
	}
	cmp.Print(os.Stdout)

	// The same table, bounded exactly: P(queue >= 32 within 60 ticks) under
	// the diurnal family, computed by exhaustive model checking — not
	// sampling — of the table's Step.
	report, err := disarcloud.VerifyPolicy(disarcloud.VerifyRequest{
		Policy:        "learned",
		Table:         table,
		TickMS:        spec.TickMS,
		MeanRuntimeMS: spec.MeanRuntimeMS,
		MaxQueue:      spec.MaxQueue,
		Trace:         spec.Traces[0],
		SLA:           disarcloud.VerifySLA{QueueBound: 32, HorizonTicks: 60, MaxProbability: 0.05},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact SLA bound (%s trace, %d states explored): P(queue >= %d within %d ticks) = %.6f",
		spec.Traces[0].Kind, report.Properties.States,
		report.Request.SLA.QueueBound, report.Request.SLA.HorizonTicks, report.Properties.PViolation)
	if report.Pass {
		fmt.Printf(" <= %.2f  PASS\n", report.Request.SLA.MaxProbability)
	} else {
		fmt.Printf(" > %.2f  FAIL\n", report.Request.SLA.MaxProbability)
	}

	// The live wiring: the table as a service's scaling policy.
	d, err := disarcloud.NewDeployer(2016)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := disarcloud.NewService(d,
		disarcloud.WithWorkers(spec.MinWorkers),
		disarcloud.WithElastic(disarcloud.ElasticConfig{
			MinWorkers: spec.MinWorkers, MaxWorkers: spec.MaxWorkers,
		}),
		disarcloud.WithLearnedPolicy(table),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	st := svc.AutoscalerStatus()
	fmt.Printf("\nlive service policy: %q (workers %d, bounds %d..%d)\n",
		st.Policy, st.Workers, st.Config.MinWorkers, st.Config.MaxWorkers)
	fmt.Printf("hyperparameters: alpha=%g gamma=%g epsilon=%g episodes=%g states=%g\n",
		st.PolicyParams["alpha"], st.PolicyParams["gamma"], st.PolicyParams["epsilon"],
		st.PolicyParams["episodes"], st.PolicyParams["states"])
}
