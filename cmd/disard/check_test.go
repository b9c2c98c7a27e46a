package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"disarcloud"
)

// fastCheckRequest is a small-state-space request for exercising runCheck
// end to end without the cost of the committed gate configuration (which CI
// runs through the real binary).
func fastCheckRequest(maxProbability string) string {
	return `{
	  "policy": "reactive",
	  "min_workers": 2,
	  "max_workers": 6,
	  "tick_ms": 100,
	  "mean_runtime_ms": 250,
	  "max_queue": 24,
	  "trace": {"Kind": "bursty", "Intervals": 64, "Seed": 1, "BaseRate": 1, "PeakRate": 4},
	  "sla": {"queue_bound": 12, "horizon_ticks": 30, "max_probability": ` + maxProbability + `}
	}`
}

func writeCheckFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "req.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCheckPassAndReport(t *testing.T) {
	path := writeCheckFile(t, fastCheckRequest("0.999999"))
	var out bytes.Buffer
	if err := runCheck(path, &out); err != nil {
		t.Fatalf("runCheck on a satisfiable bound: %v", err)
	}
	var report disarcloud.VerifyReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if !report.Pass {
		t.Fatalf("report.Pass = false under a near-1 bound: %+v", report.Properties)
	}
	if report.Properties.PViolation < 0 || report.Properties.PViolation > 1 {
		t.Fatalf("violation probability %v outside [0,1]", report.Properties.PViolation)
	}
	if report.Properties.States == 0 {
		t.Fatal("report carries no state count")
	}
}

func TestRunCheckViolationIsNonZeroExit(t *testing.T) {
	// A probability bound of ~0 is unsatisfiable for any chain that can
	// reach the queue bound at all.
	path := writeCheckFile(t, fastCheckRequest("0.000001"))
	var out bytes.Buffer
	err := runCheck(path, &out)
	if err == nil {
		t.Fatal("runCheck accepted a violated SLA")
	}
	if !strings.Contains(err.Error(), "SLA violated") {
		t.Fatalf("violation error %q does not name the SLA", err)
	}
	// The report must still have been printed before the verdict: the
	// numbers are the point of a failing gate.
	var report disarcloud.VerifyReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("failing check printed no report: %v", err)
	}
	if report.Pass {
		t.Fatal("printed report claims Pass despite the violation exit")
	}
}

func TestRunCheckRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"unknown field", `{"policy":"reactive","min_wrkers":2}`},
		{"trailing data", fastCheckRequest("0.5") + `{"again":true}`},
		{"malformed json", `{"policy":`},
		{"bad policy", `{"policy":"psychic","min_workers":2,"max_workers":4,"tick_ms":100,"mean_runtime_ms":100,"trace":{"Kind":"bursty","Intervals":64,"Seed":1},"sla":{"queue_bound":8,"horizon_ticks":10,"max_probability":0.5}}`},
		{"missing sla", `{"policy":"reactive","min_workers":2,"max_workers":4,"tick_ms":100,"mean_runtime_ms":100,"trace":{"Kind":"bursty","Intervals":64,"Seed":1}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeCheckFile(t, tc.body)
			if err := runCheck(path, new(bytes.Buffer)); err == nil {
				t.Fatalf("runCheck accepted %s", tc.name)
			}
		})
	}
	if err := runCheck(filepath.Join(t.TempDir(), "missing.json"), new(bytes.Buffer)); err == nil {
		t.Fatal("runCheck accepted a missing file")
	}
}

// TestCommittedGateFilesDecode pins the CI gate inputs: both committed
// request files must decode strictly and validate, and they must differ
// only in the queue bound under test; this keeps a refactor of the request
// schema from silently orphaning the gate files. It then pins what all four
// committed gates compute — the product chain's state count and the
// violation probability — so a refactor of the policies, the queue model or
// the checker cannot move the verified numbers while the verdicts still
// happen to hold.
func TestCommittedGateFilesDecode(t *testing.T) {
	var reqs [2]disarcloud.VerifyRequest
	for i, name := range []string{"verify_default.json", "verify_violation.json"} {
		f, err := os.Open(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		req, err := decodeVerifyRequest(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("%s does not validate: %v", name, err)
		}
		reqs[i] = req
	}
	if reqs[0].SLA.QueueBound <= reqs[1].SLA.QueueBound {
		t.Fatalf("violation file must test a tighter queue bound: default %d vs violation %d",
			reqs[0].SLA.QueueBound, reqs[1].SLA.QueueBound)
	}
	reqs[1].SLA.QueueBound = reqs[0].SLA.QueueBound
	a, _ := json.Marshal(reqs[0])
	b, _ := json.Marshal(reqs[1])
	if !bytes.Equal(a, b) {
		t.Fatalf("gate files differ beyond the queue bound:\n%s\n%s", a, b)
	}

	for _, gate := range []struct {
		file       string
		states     int
		pViolation float64
		pass       bool
	}{
		{"verify_default.json", 115317, 0.007319603623, true},
		{"verify_violation.json", 115317, 0.615417764915, false},
		{"verify_learned.json", 19493, 0.001152031207, true},
		{"verify_learned_violation.json", 19493, 0.144735634477, false},
	} {
		var out bytes.Buffer
		err := runCheck(filepath.Join("testdata", gate.file), &out)
		if (err == nil) != gate.pass {
			t.Fatalf("%s: verdict error %v, want pass=%v", gate.file, err, gate.pass)
		}
		var report disarcloud.VerifyReport
		if err := json.Unmarshal(out.Bytes(), &report); err != nil {
			t.Fatalf("%s: report is not JSON: %v", gate.file, err)
		}
		if report.Pass != gate.pass || report.Properties.States != gate.states ||
			math.Abs(report.Properties.PViolation-gate.pViolation) > 5e-13 {
			t.Errorf("%s: pass=%v states=%d p_violation=%.12f, want pass=%v states=%d p_violation=%.12f",
				gate.file, report.Pass, report.Properties.States, report.Properties.PViolation,
				gate.pass, gate.states, gate.pViolation)
		}
	}
}
