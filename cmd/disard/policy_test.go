package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"disarcloud"
)

// shippedQTablePath is the committed learned-policy artifact, relative to
// this package.
const shippedQTablePath = "../../testdata/qtable_v1.json"

// TestPolicyFlagMapping pins -policy's mapping onto service options. Each
// value must yield the same decision layer — policy name, hyperparameters,
// elastic bounds, forecast planner on or off — as the service options the
// daemon assembled for it before -policy became the only selector (-elastic,
// -forecast and -policy learned each adding their option by hand).
func TestPolicyFlagMapping(t *testing.T) {
	tbl, err := disarcloud.LoadQTable(shippedQTablePath)
	if err != nil {
		t.Fatal(err)
	}
	fc := disarcloud.ForecastConfig{Window: 64, Headroom: 1.5, SeasonPeriod: 8}
	flags := func(policy, qtable string) poolFlags {
		return poolFlags{workers: 4, queue: 8, maxWorkers: 6, policy: policy, qtable: qtable, forecast: fc}
	}
	pinnedFloor := flags("learned", shippedQTablePath)
	pinnedFloor.minWorkers, pinnedFloor.minSet = 1, true
	cases := []struct {
		name     string
		flags    poolFlags
		parent   []disarcloud.ServiceOption // beyond workers and queue depth
		policy   string
		forecast bool
	}{
		{"fixed pool", flags("", ""), nil, "", false},
		{"reactive", flags("reactive", ""), []disarcloud.ServiceOption{
			disarcloud.WithElastic(disarcloud.ElasticConfig{MaxWorkers: 6}),
		}, "reactive", false},
		{"hybrid", flags("hybrid", ""), []disarcloud.ServiceOption{
			disarcloud.WithElastic(disarcloud.ElasticConfig{MaxWorkers: 6}),
			disarcloud.WithForecast(fc),
		}, "hybrid", true},
		{"learned takes unflagged bounds from its table", flags("learned", shippedQTablePath), []disarcloud.ServiceOption{
			disarcloud.WithElastic(disarcloud.ElasticConfig{MinWorkers: tbl.Spec.MinWorkers, MaxWorkers: tbl.Spec.MaxWorkers}),
			disarcloud.WithLearnedPolicy(tbl),
		}, "learned", false},
		{"learned keeps a flagged floor", pinnedFloor, []disarcloud.ServiceOption{
			disarcloud.WithElastic(disarcloud.ElasticConfig{MinWorkers: 1, MaxWorkers: tbl.Spec.MaxWorkers}),
			disarcloud.WithLearnedPolicy(tbl),
		}, "learned", false},
	}
	d, err := disarcloud.NewDeployer(2016)
	if err != nil {
		t.Fatal(err)
	}
	type status struct {
		Enabled      bool
		Policy       string
		PolicyParams map[string]float64
		Config       disarcloud.ElasticConfig
		Forecast     bool
	}
	start := func(t *testing.T, opts []disarcloud.ServiceOption) status {
		t.Helper()
		svc, err := disarcloud.NewService(d, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		st := svc.AutoscalerStatus()
		return status{st.Enabled, st.Policy, st.PolicyParams, st.Config, svc.ForecastStatus().Enabled}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts, err := tc.flags.serviceOptions(d, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := start(t, opts)
			want := start(t, append([]disarcloud.ServiceOption{
				disarcloud.WithWorkers(4), disarcloud.WithQueueDepth(8),
			}, tc.parent...))
			if got.Policy != tc.policy || got.Enabled != (tc.policy != "") || got.Forecast != tc.forecast {
				t.Fatalf("mapped status %+v, want policy %q with forecast %v", got, tc.policy, tc.forecast)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mapped status %+v\nparent status %+v", got, want)
			}
		})
	}

	bad := []struct {
		name, policy, qtable, errPart string
	}{
		{"unknown policy", "psychic", "", "unknown -policy"},
		{"qtable without learned", "reactive", shippedQTablePath, "-qtable only drives"},
		{"qtable on a fixed pool", "", shippedQTablePath, "-qtable only drives"},
		{"learned without qtable", "learned", "", "needs a -qtable"},
		{"missing qtable", "learned", filepath.Join(t.TempDir(), "missing.json"), "load qtable"},
	}
	for _, tc := range bad {
		if _, err := flags(tc.policy, tc.qtable).serviceOptions(d, nil); err == nil || !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.errPart)
		}
	}

	// flag.Float64 parses "NaN": -forecast-headroom NaN must stop the daemon
	// at boot, not reach the planner and the JSON status encoders.
	nan := flags("hybrid", "")
	nan.forecast.Headroom = math.NaN()
	opts, err := nan.serviceOptions(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if svc, err := disarcloud.NewService(d, opts...); err == nil {
		svc.Close()
		t.Error("a NaN planner headroom started a service")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadQTableShippedArtifact: the committed artifact loads and carries
// the version this build reads.
func TestLoadQTableShippedArtifact(t *testing.T) {
	tbl, err := disarcloud.LoadQTable(shippedQTablePath)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Version != disarcloud.QTableVersion {
		t.Fatalf("artifact version %d, build reads %d", tbl.Version, disarcloud.QTableVersion)
	}
}

// TestLearnedGateFilesDecode pins the learned CI gate inputs: both committed
// request files decode strictly, their qtable resolves to the shipped
// artifact, they validate with the table attached, and they differ only in
// the queue bound under test (the violation file is the negative control).
func TestLearnedGateFilesDecode(t *testing.T) {
	var reqs [2]disarcloud.VerifyRequest
	for i, name := range []string{"verify_learned.json", "verify_learned_violation.json"} {
		f, err := os.Open(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		req, err := decodeVerifyRequest(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if req.Policy != "learned" || req.QTable == "" {
			t.Fatalf("%s is not a learned request with a qtable: %+v", name, req)
		}
		tbl, err := disarcloud.LoadQTable(filepath.Join("testdata", req.QTable))
		if err != nil {
			t.Fatalf("%s: qtable does not load: %v", name, err)
		}
		req.Table = tbl
		if err := req.Validate(); err != nil {
			t.Fatalf("%s does not validate: %v", name, err)
		}
		reqs[i] = req
	}
	if reqs[0].SLA.QueueBound <= reqs[1].SLA.QueueBound {
		t.Fatalf("violation file must test a tighter queue bound: default %d vs violation %d",
			reqs[0].SLA.QueueBound, reqs[1].SLA.QueueBound)
	}
	reqs[0].Table, reqs[1].Table = nil, nil
	reqs[1].SLA.QueueBound = reqs[0].SLA.QueueBound
	a, b := mustJSON(t, reqs[0]), mustJSON(t, reqs[1])
	if !bytes.Equal(a, b) {
		t.Fatalf("learned gate files differ beyond the queue bound:\n%s\n%s", a, b)
	}
}

// TestLearnedPolicyStatusEndpoint: a daemon running the shipped Q-table
// reports the learned policy and its hyperparameters on /v1/autoscaler.
func TestLearnedPolicyStatusEndpoint(t *testing.T) {
	tbl, err := disarcloud.LoadQTable(shippedQTablePath)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t,
		disarcloud.WithWorkers(tbl.Spec.MinWorkers),
		disarcloud.WithElastic(disarcloud.ElasticConfig{
			MinWorkers: tbl.Spec.MinWorkers,
			MaxWorkers: tbl.Spec.MaxWorkers,
		}),
		disarcloud.WithLearnedPolicy(tbl),
	)
	resp, err := http.Get(srv.URL + "/v1/autoscaler")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeJSON[autoscalerJSON](t, resp)
	if !st.Enabled || st.Policy != "learned" {
		t.Fatalf("autoscaler status %+v, want the learned policy", st)
	}
	if st.PolicyParams["states"] != float64(tbl.Spec.NumStates()) ||
		st.PolicyParams["alpha"] != tbl.Spec.Alpha {
		t.Fatalf("policy_params %v missing the table hyperparameters", st.PolicyParams)
	}
}
