package main

// Fuzz targets for the daemon's JSON request decoding — the other place
// malformed input reaches deepest: a request that survives decode +
// defaults + validation flows into portfolio generation and spec
// construction, so the invariant under fuzz is "either a clean error, or a
// spec that Validate accepts".

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"disarcloud"
)

// fuzzServer is a handler-less server shell: buildSpec needs only the seed
// and the job counter.
func fuzzServer() *server { return &server{seed: 2016} }

func jobSeeds(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"portfolio":1,"contracts":20,"outer":200,"inner":10,"seed":42}`))
	f.Add([]byte(`{"portfolio":-1}`))
	f.Add([]byte(`{"portfolio":99999}`))
	f.Add([]byte(`{"contracts":1000000,"fund_assets":-3}`))
	f.Add([]byte(`{"outer":0,"inner":-5,"tmax_seconds":-1}`))
	f.Add([]byte(`{"tmax_seconds":1e308,"max_nodes":9999,"epsilon":2}`))
	f.Add([]byte(`{"epsilon":null,"seed":18446744073709551615}`))
	f.Add([]byte(`{"max_workers":65,"max_nodes":-1}`))
	f.Add([]byte(`{"contracts":3.7}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"portfolio":`))
	f.Add([]byte("\x00\xff garbage"))
}

// FuzzJobRequestDecode drives arbitrary bodies through the single-job
// submit decode path.
func FuzzJobRequestDecode(f *testing.F) {
	jobSeeds(f)
	s := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req jobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return // malformed JSON is rejected before it reaches buildSpec
		}
		spec, err := s.buildSpec(&req)
		if err != nil {
			return // clean rejection
		}
		// An accepted request must have produced a submittable spec: this is
		// exactly what Service.Submit would check next.
		if err := spec.Validate(); err != nil {
			t.Fatalf("buildSpec accepted %q but the spec does not validate: %v", body, err)
		}
		if spec.Constraints.Epsilon < 0 || spec.Constraints.Epsilon > 1 {
			t.Fatalf("buildSpec accepted epsilon %v outside [0,1]", spec.Constraints.Epsilon)
		}
	})
}

// FuzzTraceRequestDecode drives arbitrary bodies through the loadgen
// trace-spec decode path. The invariant: either a clean rejection, or a
// spec that both validates and actually generates — a generated trace must
// have exactly the requested length and no negative counts, and the
// server-side interval cap must hold.
func FuzzTraceRequestDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"diurnal","intervals":48,"seed":7,"base_rate":2,"peak_rate":8,"period":12}`))
	f.Add([]byte(`{"kind":"bursty","burst_prob":0.1,"calm_prob":0.4}`))
	f.Add([]byte(`{"kind":"flash","flash_at":0.9,"flash_width":3,"rates":true}`))
	f.Add([]byte(`{"kind":"mixed","intervals":100000}`))
	f.Add([]byte(`{"kind":"weird"}`))
	f.Add([]byte(`{"intervals":-5,"base_rate":-1}`))
	f.Add([]byte(`{"intervals":100001}`))
	f.Add([]byte(`{"base_rate":1e308,"peak_rate":1e-308}`))
	f.Add([]byte(`{"period":1,"flash_width":-2}`))
	f.Add([]byte(`{"burst_prob":2,"calm_prob":-1,"flash_at":1.0000001}`))
	f.Add([]byte(`{"seed":18446744073709551615,"rates":1}`))
	f.Add([]byte(`{"kind":`))
	f.Add([]byte("\x00\xff garbage"))
	s := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req traceRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return // malformed JSON is rejected before it reaches buildTraceSpec
		}
		spec, err := s.buildTraceSpec(&req)
		if err != nil {
			return // clean rejection
		}
		if spec.Intervals > maxReqTraceIntervals {
			t.Fatalf("buildTraceSpec accepted %d intervals past the request cap", spec.Intervals)
		}
		counts, err := disarcloud.GenerateTrace(spec)
		if err != nil {
			t.Fatalf("buildTraceSpec accepted %q but generation failed: %v", body, err)
		}
		if len(counts) != spec.Intervals {
			t.Fatalf("trace length %d, spec wants %d", len(counts), spec.Intervals)
		}
		for i, c := range counts {
			if c < 0 {
				t.Fatalf("negative arrival count %d at interval %d", c, i)
			}
		}
	})
}

// FuzzProxyRequestDecode drives arbitrary bodies carrying a proxy section
// through the submit decode path. The invariant sharpens the job one: an
// accepted body with a proxy section must produce a spec whose Proxy both
// validates and respects the request ceilings (training sample bounded, the
// too-small clamp never under-shoots the usable minimum).
func FuzzProxyRequestDecode(f *testing.F) {
	f.Add([]byte(`{"proxy":{}}`))
	f.Add([]byte(`{"outer":50,"proxy":{"train_outer":32,"error_budget":0.05,"model":"forest"}}`))
	f.Add([]byte(`{"proxy":{"model":"poly","degree":3,"train_inner":5}}`))
	f.Add([]byte(`{"proxy":{"train_outer":5}}`))
	f.Add([]byte(`{"proxy":{"train_outer":-1}}`))
	f.Add([]byte(`{"proxy":{"train_outer":5001}}`))
	f.Add([]byte(`{"proxy":{"error_budget":2}}`))
	f.Add([]byte(`{"proxy":{"error_budget":-0.5,"escalation_cap":1.5}}`))
	f.Add([]byte(`{"proxy":{"model":"nope"}}`))
	f.Add([]byte(`{"proxy":{"degree":9}}`))
	f.Add([]byte(`{"proxy":{"train_inner":100000}}`))
	f.Add([]byte(`{"proxy":null}`))
	f.Add([]byte(`{"proxy":[]}`))
	f.Add([]byte(`{"proxy":{"error_budget":1e-308,"escalation_cap":1}}`))
	s := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req jobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		spec, err := s.buildSpec(&req)
		if err != nil {
			return // clean rejection
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("buildSpec accepted %q but the spec does not validate: %v", body, err)
		}
		if req.Proxy == nil {
			if spec.Proxy != nil {
				t.Fatalf("no proxy section, no server default, but spec carries %+v", spec.Proxy)
			}
			return
		}
		if spec.Proxy == nil {
			t.Fatalf("accepted proxy section %q lost on the way to the spec", body)
		}
		if spec.Proxy.TrainOuter > maxReqProxyTrain {
			t.Fatalf("proxy training sample %d past the request cap", spec.Proxy.TrainOuter)
		}
		if spec.Proxy.TrainOuter != 0 && spec.Proxy.TrainOuter < disarcloud.MinProxyTrainOuter {
			t.Fatalf("proxy training sample %d below the usable minimum", spec.Proxy.TrainOuter)
		}
	})
}

// FuzzCostRequestDecode drives arbitrary bodies carrying the cost-plane
// fields (budget, tier) through the submit decode path. The invariant: an
// accepted body must resolve to a non-negative, ceiling-clamped MaxCost and
// a tier list the selector recognises — and an unknown tier name or a
// negative/NaN budget must be a clean rejection, never a spec.
func FuzzCostRequestDecode(f *testing.F) {
	f.Add([]byte(`{"budget":10,"tier":"spot"}`))
	f.Add([]byte(`{"budget":0}`))
	f.Add([]byte(`{"budget":0.0001,"tier":"on-demand"}`))
	f.Add([]byte(`{"tier":"reserved"}`))
	f.Add([]byte(`{"tier":"any"}`))
	f.Add([]byte(`{"tier":"ANY"}`))
	f.Add([]byte(`{"tier":"preemptible"}`))
	f.Add([]byte(`{"budget":-1}`))
	f.Add([]byte(`{"budget":1e308,"tier":"spot"}`))
	f.Add([]byte(`{"budget":1e-308}`))
	f.Add([]byte(`{"budget":null,"tier":null}`))
	f.Add([]byte(`{"budget":"12"}`))
	f.Add([]byte(`{"tier":3}`))
	f.Add([]byte(`{"budget":`))
	f.Add([]byte("\x00\xff garbage"))
	s := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req jobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		spec, err := s.buildSpec(&req)
		if err != nil {
			return // clean rejection
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("buildSpec accepted %q but the spec does not validate: %v", body, err)
		}
		mc := spec.Constraints.MaxCost
		if mc < 0 || mc != mc || mc > maxReqBudget {
			t.Fatalf("buildSpec accepted %q with max cost %v outside [0,%v]", body, mc, maxReqBudget)
		}
		for _, tier := range spec.Constraints.Tiers {
			if _, err := disarcloud.ParseTier(tier.String()); err != nil {
				t.Fatalf("buildSpec accepted %q with unknown tier %v", body, tier)
			}
		}
		if req.Tier != "" && len(spec.Constraints.Tiers) == 0 {
			t.Fatalf("accepted tier %q lost on the way to the spec", req.Tier)
		}
	})
}

// FuzzCampaignRequestDecode drives arbitrary bodies through the campaign
// submit decode path, including the campaign-only switches and the shock
// list construction.
func FuzzCampaignRequestDecode(f *testing.F) {
	jobSeeds(f)
	f.Add([]byte(`{"no_reuse":true,"longevity":true}`))
	f.Add([]byte(`{"longevity":1}`))
	s := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req campaignRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		spec, err := s.buildSpec(&req.jobRequest)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("campaign buildSpec accepted %q but the spec does not validate: %v", body, err)
		}
		shocks := disarcloud.StandardFormulaShocks()
		if req.Longevity {
			shocks = append(shocks, disarcloud.LongevityShock())
		}
		if len(shocks) == 0 {
			t.Fatal("campaign request produced an empty shock battery")
		}
	})
}

// FuzzVerifyRequestDecode drives arbitrary bodies through the `-check`
// decode path. The decoder is strict (unknown fields and trailing data are
// rejected), so the invariant is: either a clean decode error, a clean
// validation error, or a request whose SLA is coherent and whose trace spec
// actually generates — the same contract runCheck relies on before it
// spends seconds building the product chain.
func FuzzVerifyRequestDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"policy":"reactive","min_workers":4,"max_workers":16,"tick_ms":100,"mean_runtime_ms":250,"phase_levels":4,"max_queue":64,"trace":{"Kind":"diurnal","Intervals":256,"Seed":1,"BaseRate":1,"PeakRate":5,"Period":64},"sla":{"queue_bound":32,"horizon_ticks":60,"max_probability":0.05}}`))
	f.Add([]byte(`{"policy":"hybrid","min_workers":2,"max_workers":8,"tick_ms":100,"mean_runtime_ms":200,"headroom":1.3,"trace":{"Kind":"bursty","Intervals":64,"Seed":1,"BaseRate":1.5,"PeakRate":7},"sla":{"queue_bound":16,"horizon_ticks":30,"max_probability":0.5}}`))
	f.Add([]byte(`{"policy":"psychic"}`))
	f.Add([]byte(`{"policy":"reactive","min_workers":-1,"max_workers":0}`))
	f.Add([]byte(`{"policy":"reactive","min_workers":8,"max_workers":4}`))
	f.Add([]byte(`{"tick_ms":0,"mean_runtime_ms":-5}`))
	f.Add([]byte(`{"tick_ms":9999999,"max_queue":-1,"phase_levels":1000}`))
	f.Add([]byte(`{"sla":{"queue_bound":0,"horizon_ticks":-1,"max_probability":2}}`))
	f.Add([]byte(`{"sla":{"max_probability":1e-308},"headroom":1e308}`))
	f.Add([]byte(`{"trace":{"Kind":"weird","Intervals":-3}}`))
	f.Add([]byte(`{"trace":{"Kind":"bursty","BurstProb":2,"CalmProb":-1}}`))
	f.Add([]byte(`{"initial_workers":99999,"max_step":-2}`))
	f.Add([]byte(`{"scale_up_pressure":0.1,"scale_down_pressure":0.9}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`{"policy":"reactive"} trailing`))
	f.Add([]byte(`{"policy":`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("\x00\xff garbage"))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeVerifyRequest(bytes.NewReader(body))
		if err != nil {
			return // clean decode rejection
		}
		if err := req.Validate(); err != nil {
			return // clean validation rejection
		}
		sla := req.SLA
		if sla.QueueBound < 1 || sla.HorizonTicks < 1 ||
			sla.MaxProbability <= 0 || sla.MaxProbability > 1 {
			t.Fatalf("Validate accepted %q with incoherent SLA %+v", body, sla)
		}
		// A validated request's trace spec is what the chain builder and the
		// replay cross-validator both consume — it must generate.
		if _, err := disarcloud.GenerateTrace(req.Trace); err != nil {
			t.Fatalf("Validate accepted %q but its trace does not generate: %v", body, err)
		}
	})
}

// FuzzJoinRequestDecode drives arbitrary bodies through the cluster join
// endpoint — worker registration is the one place untrusted input reaches
// the coordinator's membership state. The invariant: never a panic, never a
// 5xx, and a 200 must carry a usable registration (non-empty worker id and
// a positive heartbeat cadence).
func FuzzJoinRequestDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"w0","addr":"127.0.0.1:9000","slots":2}`))
	f.Add([]byte(`{"name":"","addr":"127.0.0.1:9000","slots":2}`))
	f.Add([]byte(`{"name":"w0","addr":"","slots":2}`))
	f.Add([]byte(`{"name":"w0","addr":"127.0.0.1:9000","slots":0}`))
	f.Add([]byte(`{"name":"w0","addr":"127.0.0.1:9000","slots":-3}`))
	f.Add([]byte(`{"name":"w0","addr":"127.0.0.1:9000","slots":1025}`))
	f.Add([]byte(`{"name":"w0","addr":"127.0.0.1:9000","slots":3.7}`))
	f.Add([]byte(`{"slots":18446744073709551615}`))
	f.Add([]byte(`{"name":null,"addr":null,"slots":null}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"name":`))
	f.Add([]byte("\x00\xff garbage"))
	mux := http.NewServeMux()
	disarcloud.NewClusterCoordinator(disarcloud.ClusterConfig{}).Routes(mux)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/join", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("join body %q produced server error %d: %s", body, rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			return // clean rejection
		}
		var resp struct {
			ID               string  `json:"id"`
			HeartbeatSeconds float64 `json:"heartbeatSeconds"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("accepted join %q returned unparseable response: %v", body, err)
		}
		if resp.ID == "" || resp.HeartbeatSeconds <= 0 {
			t.Fatalf("accepted join %q returned unusable registration %+v", body, resp)
		}
	})
}
