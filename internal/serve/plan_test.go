package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ios/internal/core"
	"ios/internal/models"
	"ios/internal/schedule"
)

// planTestBatches keeps the warm sweep cheap: SqueezeNet searches in
// well under a millisecond per batch.
var planTestBatches = []int{1, 4, 16}

// newPlannedServer warms a SqueezeNet batch plan into a fresh server.
func newPlannedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{Logf: t.Logf})
	if err := s.WarmPlans(context.Background(), []string{"squeezenet"}, planTestBatches); err != nil {
		t.Fatalf("WarmPlans: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestPlanExactHit(t *testing.T) {
	s, ts := newPlannedServer(t)

	resp, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "squeezenet", Batch: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan == nil {
		t.Fatal("planned batch not served from the plan")
	}
	if !out.Plan.Exact || out.Plan.PlannedBatch != 4 || out.Plan.Penalty != 1 {
		t.Fatalf("plan route = %+v, want exact batch 4 penalty 1", out.Plan)
	}
	if !out.Cached {
		t.Error("plan-served response should report cached=true (no search ran)")
	}
	if out.LatencyMS <= 0 || out.Throughput <= 0 {
		t.Fatalf("latency %.3f, throughput %.3f", out.LatencyMS, out.Throughput)
	}
	// The schedule is the plan's specialized one: it must reconstruct and
	// validate against the batch-4 graph.
	g := models.SqueezeNet(4)
	sched, err := schedule.FromJSON(out.Schedule, g)
	if err != nil {
		t.Fatalf("returned schedule does not bind to squeezenet b4: %v", err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatalf("returned schedule invalid: %v", err)
	}
	// No optimizer ran: the schedule cache saw no traffic for this key.
	if st := s.Cache().Stats(); st.Misses != 0 {
		t.Errorf("schedule cache misses = %d, want 0 (plan bypasses the search)", st.Misses)
	}
}

func TestPlanNearestRouting(t *testing.T) {
	s, ts := newPlannedServer(t)

	// Batch 13 is unplanned; nearest planned batch is 16.
	resp, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "squeezenet", Batch: 13})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan == nil {
		t.Fatal("unplanned batch not routed through the plan")
	}
	if out.Plan.Exact || out.Plan.PlannedBatch != 16 {
		t.Fatalf("plan route = %+v, want nearest batch 16", out.Plan)
	}
	wantPen := s.LookupPlan("squeezenet", out.Device, out.Options).EstimatePenalty(2, 13)
	if out.Plan.Penalty != wantPen {
		t.Errorf("penalty = %v, want the plan's estimate %v", out.Plan.Penalty, wantPen)
	}
	if out.Batch != 13 {
		t.Errorf("response batch = %d, want the requested 13", out.Batch)
	}
	// The served schedule must be feasible at the REQUESTED batch.
	g := models.SqueezeNet(13)
	sched, err := schedule.FromJSON(out.Schedule, g)
	if err != nil {
		t.Fatalf("routed schedule does not bind at batch 13: %v", err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatalf("routed schedule invalid: %v", err)
	}

	// The routing and its penalty are recorded in /stats.
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Plan.Plans != 1 || st.Plan.Routed != 1 {
		t.Fatalf("plan stats = %+v, want 1 plan, 1 routed", st.Plan)
	}
	if st.Plan.LastPenalty != wantPen || st.Plan.PenaltySum != wantPen {
		t.Errorf("recorded penalty = %v (sum %v), want %v", st.Plan.LastPenalty, st.Plan.PenaltySum, wantPen)
	}
	if st.Plan.MaxPenalty < 1 {
		t.Errorf("max penalty = %v, want >= 1", st.Plan.MaxPenalty)
	}
}

func TestPlansEndpoint(t *testing.T) {
	_, ts := newPlannedServer(t)
	var infos []PlanInfo
	getJSON(t, ts.URL+"/plans", &infos)
	if len(infos) != 1 {
		t.Fatalf("GET /plans returned %d plans, want 1", len(infos))
	}
	info := infos[0]
	if info.Model != "squeezenet" || len(info.Batches) != len(planTestBatches) {
		t.Fatalf("plan info = %+v", info)
	}
	for i := range info.Batches {
		if info.Penalty[i][i] != 1 {
			t.Errorf("penalty diagonal [%d][%d] = %v, want 1", i, i, info.Penalty[i][i])
		}
		for j := range info.Batches {
			if info.LatencyMS[i][j] <= 0 {
				t.Errorf("latency_ms[%d][%d] = %v", i, j, info.LatencyMS[i][j])
			}
			// Column minimum on the diagonal: specialization wins.
			if info.LatencyMS[j][j] > info.LatencyMS[i][j]*(1+1e-9) {
				t.Errorf("diagonal loses: lat[%d][%d]=%v > lat[%d][%d]=%v",
					j, j, info.LatencyMS[j][j], i, j, info.LatencyMS[i][j])
			}
		}
	}
}

func TestPlanRoutingConcurrent(t *testing.T) {
	s, ts := newPlannedServer(t)
	batches := []int{1, 2, 4, 8, 13, 16, 32}
	const perBatch = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(batches)*perBatch)
	for _, b := range batches {
		for k := 0; k < perBatch; k++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				resp, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "squeezenet", Batch: b})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("batch %d: status %d: %s", b, resp.StatusCode, body)
					return
				}
				var out OptimizeResponse
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- fmt.Errorf("batch %d: %v", b, err)
					return
				}
				if out.Plan == nil {
					errs <- fmt.Errorf("batch %d: not plan-served", b)
				}
			}(b)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	total := st.Plan.Exact + st.Plan.Routed
	if want := int64(len(batches) * perBatch); total != want {
		t.Errorf("plan-served count = %d, want %d", total, want)
	}
	if st.Plan.Exact != int64(3*perBatch) {
		t.Errorf("exact = %d, want %d (batches 1, 4, 16)", st.Plan.Exact, 3*perBatch)
	}
	// PenaltySum covers routed answers only (exact hits are excluded, see
	// recordRoute): each routed penalty is >= 1, and the exact traffic
	// must not inflate the sum.
	if math.IsNaN(st.Plan.PenaltySum) || st.Plan.PenaltySum < float64(st.Plan.Routed)-1e-9 {
		t.Errorf("penalty sum = %v, want >= routed count %d", st.Plan.PenaltySum, st.Plan.Routed)
	}
	if st.Plan.PenaltySum >= float64(total) {
		t.Errorf("penalty sum = %v includes exact traffic (total served %d, routed %d)",
			st.Plan.PenaltySum, total, st.Plan.Routed)
	}
	_ = s
}

// TestPlanExactHitsExcludedFromPenaltySum pins the /stats penalty
// semantics: exact planned-batch hits record no penalty into the
// aggregates (their penalty is 1.0 by construction and would drag the
// mean routed penalty toward 1), while LastPenalty still reflects them.
func TestPlanExactHitsExcludedFromPenaltySum(t *testing.T) {
	_, ts := newPlannedServer(t)
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "squeezenet", Batch: 4})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Plan.Exact != 3 || st.Plan.Routed != 0 {
		t.Fatalf("plan stats = %+v, want 3 exact, 0 routed", st.Plan)
	}
	if st.Plan.PenaltySum != 0 || st.Plan.MaxPenalty != 0 {
		t.Errorf("exact-only traffic recorded penalty sum %v max %v, want 0/0",
			st.Plan.PenaltySum, st.Plan.MaxPenalty)
	}
	if st.Plan.LastPenalty != 1 {
		t.Errorf("last penalty = %v, want the exact hit's 1.0", st.Plan.LastPenalty)
	}
}

// TestPlanDoesNotHijackOtherConfigs pins the routing key: a plan
// registered under options other than the server's is listed by GET
// /plans but never serves, so /optimize runs the normal search.
func TestPlanDoesNotHijackOtherConfigs(t *testing.T) {
	other := NewServer(Config{Options: core.Options{Pruning: core.Pruning{R: 2}}})
	if err := other.WarmPlans(context.Background(), []string{"squeezenet"}, planTestBatches); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t)
	p := other.Plans()[0]
	if err := s.RegisterPlan(p); err != nil {
		t.Fatal(err)
	}
	var infos []PlanInfo
	getJSON(t, ts.URL+"/plans", &infos)
	if len(infos) != 1 || infos[0].Options != p.Opts {
		t.Fatalf("GET /plans = %+v, want the one r=2 plan (%s)", infos, p.Opts)
	}
	resp, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "squeezenet", Batch: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan != nil || out.Options == p.Opts {
		t.Fatalf("the r=3 server served the r=2 plan (options %s)", out.Options)
	}
	if out.Search.States == 0 || out.Search.Measurements == 0 {
		t.Errorf("fall-through request should have run a real search (states %d, measurements %d)",
			out.Search.States, out.Search.Measurements)
	}
}

// TestMeasureQuotesThePlannedSchedule: on a key with a registered plan,
// /measure's ios answer is the schedule /optimize serves, at a planned
// batch and at one routed to it, and it runs no search for it.
func TestMeasureQuotesThePlannedSchedule(t *testing.T) {
	_, ts := newPlannedServer(t)
	var before StatsResponse
	getJSON(t, ts.URL+"/stats", &before)
	for _, batch := range []int{4, 8} {
		resp, body := postJSON(t, ts.URL+"/measure", MeasureRequest{Model: "squeezenet", Batch: batch})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: /measure status %d: %s", batch, resp.StatusCode, body)
		}
		var m MeasureResponse
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		resp, body = postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "squeezenet", Batch: batch})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: /optimize status %d: %s", batch, resp.StatusCode, body)
		}
		var o OptimizeResponse
		if err := json.Unmarshal(body, &o); err != nil {
			t.Fatal(err)
		}
		if m.Source != "ios" || m.LatencyMS != o.LatencyMS || m.Summary != o.Summary {
			t.Errorf("batch %d: /measure quotes %.6f ms %+v, /optimize serves %.6f ms %+v",
				batch, m.LatencyMS, m.Summary, o.LatencyMS, o.Summary)
		}
	}
	var after StatsResponse
	getJSON(t, ts.URL+"/stats", &after)
	if after.Cache.Misses != before.Cache.Misses {
		t.Errorf("/stats cache.misses moved %d -> %d, want no search (the plan answers every planned key)",
			before.Cache.Misses, after.Cache.Misses)
	}
}

// TestMeasureOnAPlannedKeyAnswersFromItsEntry: on a key with a registered
// plan, at a planned batch and at one routed to it, /measure answers both
// baselines and the schedule /optimize serves from the plan's answer for
// the batch, byte for byte what a server with no plan answers. The
// sequential baseline and the schedule look no stage up, and the greedy
// baseline only on its first call.
func TestMeasureOnAPlannedKeyAnswersFromItsEntry(t *testing.T) {
	planned, _ := newPlannedServer(t)
	bare := NewServer(Config{})
	for _, batch := range []int{4, 8} {
		opt, _, err := optimizeOK(planned, mustMarshal(t, OptimizeRequest{Model: "squeezenet", Batch: batch}))
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []MeasureRequest{
			{Model: "squeezenet", Batch: batch, Baseline: "sequential"},
			{Model: "squeezenet", Batch: batch, Baseline: "greedy"},
			{Model: "squeezenet", Batch: batch, Schedule: opt.Schedule},
		} {
			body := mustMarshal(t, req)
			code, want := post(bare, "/measure", body)
			if code != http.StatusOK {
				t.Fatalf("batch %d: the plan-less server answered %d: %s", batch, code, want)
			}
			for i := 0; i < 2; i++ {
				before := planned.MeasureCache().Stats()
				code, got := post(planned, "/measure", body)
				if code != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("batch %d %.40s call %d: %d\n got %s\nwant %s", batch, body, i, code, got, want)
				}
				if after := planned.MeasureCache().Stats(); (after != before) != (i == 0 && req.Baseline == "greedy") {
					t.Errorf("batch %d %.40s call %d: measurement cache %+v -> %+v", batch, body, i, before, after)
				}
			}
		}
	}
	if st := planned.Cache().Stats(); st.Misses != 0 {
		t.Errorf("a planned key was searched: %+v", st)
	}
}

// TestOptimizeRejectsInconsistentInputBatches covers the serving side of
// the Graph.Batch bugfix: a multi-input graph whose inputs disagree on
// the batch dimension must be a 400, not a cache entry under the first
// input's batch.
func TestOptimizeRejectsInconsistentInputBatches(t *testing.T) {
	s, ts := newTestServer(t)
	graphJSON := `{
	  "name": "twin",
	  "nodes": [
	    {"name": "a", "op": "input", "shape": [2, 3, 8, 8]},
	    {"name": "b", "op": "input", "shape": [4, 3, 8, 8]},
	    {"name": "ca", "op": "conv", "inputs": ["a"], "out": 3, "act": "relu"},
	    {"name": "cb", "op": "conv", "inputs": ["b"], "out": 3, "act": "relu"}
	  ]
	}`
	resp, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Graph: json.RawMessage(graphJSON)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "batch") {
		t.Errorf("error does not mention the batch conflict: %s", body)
	}
	if got := s.Cache().Len(); got != 0 {
		t.Errorf("inconsistent graph left %d cache slots behind", got)
	}
}

// TestConcurrentFirstPlanAnswerComputesOnce: eight concurrent first
// /optimize requests for one unplanned batch of a registered plan get one
// answer, computed once: the plan's answer core counts one miss, and the
// other seven waited for it or hit it.
func TestConcurrentFirstPlanAnswerComputesOnce(t *testing.T) {
	s := NewServer(Config{})
	if err := s.WarmPlans(context.Background(), []string{"inception"}, []int{1, 8}); err != nil {
		t.Fatal(err)
	}
	const n = 8
	body := mustMarshal(t, OptimizeRequest{Model: "inception", Batch: 5})
	answers := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var err error
			if _, answers[i], err = optimizeOK(s, body); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, a := range answers {
		if !bytes.Equal(a, answers[0]) {
			t.Fatalf("request %d answered\n%.200s\nrequest 0\n%.200s", i, a, answers[0])
		}
	}
	rec := s.planFor(Key{Model: "inception", Device: s.cfg.Device.Name, Opts: s.optsFP})
	if st := rec.answers.Stats(); st.Misses != 1 || st.Hits+st.Coalesced != n-1 || st.Size != 1 {
		t.Errorf("plan answers after %d concurrent first requests: %+v, want 1 miss, %d hits or waits, 1 entry", n, st, n-1)
	}
}

// answerKey is the key of a batch's answer in its plan's answer core.
func answerKey(batch int) []byte { return binary.AppendVarint(nil, int64(batch)) }

// TestPlanMemoEvictsWhenFull: a batch sweep past planMemoCap leaves the
// plan's answers at or under their cap, and the newest batch — asked for
// after they filled — is resident, so its second request is answered from
// the record instead of being re-bound, re-measured and re-rendered forever.
func TestPlanMemoEvictsWhenFull(t *testing.T) {
	s := NewServer(Config{})
	if err := s.WarmPlans(context.Background(), []string{"fig2"}, []int{1, 8}); err != nil {
		t.Fatal(err)
	}
	last := planMemoCap + 3
	for b := 1; b <= last; b++ {
		if _, _, err := optimizeOK(s, mustMarshal(t, OptimizeRequest{Model: "fig2", Batch: b})); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	rec := s.planFor(Key{Model: "fig2", Device: "Tesla V100", Opts: s.optsFP})
	memoized := func() *Entry {
		if n := rec.answers.Len(); n > planMemoCap {
			t.Fatalf("plan holds %d answers, cap %d", n, planMemoCap)
		}
		e, _ := rec.answers.Lookup(answerKey(last))
		return e
	}
	first := memoized()
	if first == nil {
		t.Fatalf("batch %d, requested after the answers filled, was not stored", last)
	}
	measured := s.MeasureCache().Stats()
	r, _, err := optimizeOK(s, mustMarshal(t, OptimizeRequest{Model: "fig2", Batch: last}))
	if err != nil || r.Batch != last || r.Plan == nil {
		t.Fatalf("second request for batch %d: %v, %+v", last, err, r)
	}
	if memoized() != first {
		t.Errorf("second request for batch %d replaced its answer instead of reading it", last)
	}
	if after := s.MeasureCache().Stats(); after != measured {
		t.Errorf("second request for batch %d measured again: %+v -> %+v", last, measured, after)
	}
}
