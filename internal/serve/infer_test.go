package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// newBatchingServer warms a SqueezeNet plan into a server with the
// auto-batching front end enabled.
func newBatchingServer(t *testing.T, bc BatchingConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{Logf: t.Logf, Batching: &bc})
	if err := s.WarmPlans(context.Background(), []string{"squeezenet"}, planTestBatches); err != nil {
		t.Fatalf("WarmPlans: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.CloseBatchers()
	})
	return s, ts
}

func TestInferDisabled(t *testing.T) {
	_, ts := newPlannedServer(t) // no Batching config
	resp, body := postJSON(t, ts.URL+"/infer", InferRequest{Model: "squeezenet"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when auto-batching is disabled: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "disabled") {
		t.Errorf("error should say auto-batching is disabled: %s", body)
	}
	// The route table answers a wrong method before the handler runs.
	if resp, err := http.Get(ts.URL + "/infer"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /infer: status %d, want 405", resp.StatusCode)
	}
}

func TestInferNoPlan(t *testing.T) {
	s := NewServer(Config{Logf: t.Logf, Batching: &BatchingConfig{SLO: 50 * time.Millisecond}})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	resp, body := postJSON(t, ts.URL+"/infer", InferRequest{Model: "squeezenet"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 without a registered plan: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "no registered plan") {
		t.Errorf("error should point at the missing plan: %s", body)
	}
}

func TestInferSingleRequest(t *testing.T) {
	_, ts := newBatchingServer(t, BatchingConfig{SLO: 50 * time.Millisecond})
	resp, body := postJSON(t, ts.URL+"/infer", InferRequest{Model: "squeezenet"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out InferResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Images != 1 || out.DispatchImages < 1 || out.DispatchRequests < 1 {
		t.Errorf("response = %+v, want a served single-image request", out)
	}
	if out.Plan.PlannedBatch == 0 || out.Plan.Penalty < 1 {
		t.Errorf("plan route = %+v, want a valid routing", out.Plan)
	}
	if out.LatencyMS <= 0 || out.TotalMS < out.LatencyMS {
		t.Errorf("latency %.3fms total %.3fms implausible", out.LatencyMS, out.TotalMS)
	}
	if out.SLOMS != 50 {
		t.Errorf("slo_ms = %v, want 50", out.SLOMS)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if !st.Batch.Enabled || st.Batch.SLOMS != 50 {
		t.Fatalf("batch stats = %+v, want enabled with slo 50ms", st.Batch)
	}
	if len(st.Batch.Batchers) != 1 {
		t.Fatalf("batchers = %d, want 1 (squeezenet)", len(st.Batch.Batchers))
	}
	b := st.Batch.Batchers[0]
	if b.Model != "squeezenet" || b.Images < 1 || b.Dispatches < 1 {
		t.Errorf("batcher stats = %+v", b)
	}
	var histTotal int64
	for _, c := range b.DispatchHist {
		histTotal += c
	}
	if histTotal != b.Dispatches {
		t.Errorf("dispatch hist total %d != dispatches %d", histTotal, b.Dispatches)
	}
	if len(b.SuggestedBatches) == 0 {
		t.Error("suggested batches empty after served traffic")
	}
}

// TestInferConcurrent hammers /infer from many goroutines (exercised
// under -race in CI): every request is served, the per-plan counters
// add up, and routing stats flow into the plan counters.
func TestInferConcurrent(t *testing.T) {
	s, ts := newBatchingServer(t, BatchingConfig{SLO: 100 * time.Millisecond})
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/infer", InferRequest{Model: "squeezenet"})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var out InferResponse
			if err := json.Unmarshal(body, &out); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.batchStats()
	if len(st.Batchers) != 1 || st.Batchers[0].Images != n {
		t.Fatalf("batch stats = %+v, want %d images through one batcher", st, n)
	}
	if st.Batchers[0].QueueDepth != 0 || st.Batchers[0].InFlight != 0 {
		t.Errorf("batcher not idle after all requests returned: %+v", st.Batchers[0])
	}
}

// TestReRegisterPlanRetiresItsBatcher: re-registering a plan after /infer
// traffic reached it closes the old plan's batcher, so /stats lists one
// batcher and the old one's goroutine is gone; and while 8 clients post
// /infer through 5 re-registrations, every answer is a 200.
func TestReRegisterPlanRetiresItsBatcher(t *testing.T) {
	s := NewServer(Config{Logf: t.Logf, Batching: &BatchingConfig{SLO: 50 * time.Millisecond}})
	t.Cleanup(func() { s.CloseBatchers() })
	ctx := context.Background()
	warm := func() error { return s.WarmPlans(ctx, []string{"squeezenet"}, planTestBatches) }
	if err := warm(); err != nil {
		t.Fatal(err)
	}
	body := mustMarshal(t, InferRequest{Model: "squeezenet"})
	infer := func() {
		t.Helper()
		if code, raw := post(s, "/infer", body); code != http.StatusOK {
			t.Fatalf("/infer: status %d: %s", code, raw)
		}
	}
	settled := func(baseline int) {
		t.Helper()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st StatsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if n := len(st.Batch.Batchers); n != 1 {
			t.Errorf("/stats lists %d batchers for 1 plan, want 1", n)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, %d before the re-registration: a replaced batcher still runs", runtime.NumGoroutine(), baseline)
			}
		}
	}

	infer()
	baseline := runtime.NumGoroutine()
	if err := warm(); err != nil {
		t.Fatal(err)
	}
	infer()
	settled(baseline)

	stop := make(chan struct{})
	var clients sync.WaitGroup
	for c := 0; c < 8; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				if code, raw := post(s, "/infer", body); code != http.StatusOK {
					t.Errorf("/infer during re-registration: status %d: %s", code, raw)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if err := warm(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	clients.Wait()
	infer()
	settled(baseline)
}

// TestInferDrainWithQueuedRequest pins the shutdown path: a request
// queued (waiting for a bigger batch) when DrainBatchers runs completes
// immediately instead of waiting out its SLO headroom.
func TestInferDrainWithQueuedRequest(t *testing.T) {
	s, ts := newBatchingServer(t, BatchingConfig{SLO: 30 * time.Second})
	// First request: cold start, dispatches immediately, and establishes
	// an arrival timestamp.
	if resp, body := postJSON(t, ts.URL+"/infer", InferRequest{Model: "squeezenet"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming request: status %d: %s", resp.StatusCode, body)
	}
	// Second request: the observed arrival gap gives the queue a rate
	// estimate, and the enormous SLO lets it wait for a bigger planned
	// batch — it stays queued.
	done := make(chan InferResponse, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/infer", InferRequest{Model: "squeezenet"})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("queued request: status %d: %s", resp.StatusCode, body)
			close(done)
			return
		}
		var out InferResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Error(err)
			close(done)
			return
		}
		done <- out
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.batchStats().Batchers[0].QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued (expected it to wait for a bigger batch)")
		}
		runtime.Gosched()
	}
	// Drain while the request is queued: it must complete promptly, long
	// before its 30s SLO headroom would have dispatched it.
	if err := s.DrainBatchers(context.Background()); err != nil {
		t.Fatalf("DrainBatchers: %v", err)
	}
	select {
	case out, ok := <-done:
		if ok && out.DispatchImages != 1 {
			t.Errorf("drained dispatch carried %d images, want the 1 queued", out.DispatchImages)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request did not complete after DrainBatchers")
	}
	if depth := s.batchStats().Batchers[0].QueueDepth; depth != 0 {
		t.Errorf("queue depth after drain = %d, want 0", depth)
	}
}

// TestRecordRouteConcurrent drives the plan counters from many
// goroutines directly (run under -race in CI): planMu must fully cover
// the float aggregates.
func TestRecordRouteConcurrent(t *testing.T) {
	s := NewServer(Config{})
	const per = 50
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				s.recordRoute(1.0+float64(i)/100, i%2 == 0)
			}
		}(i)
	}
	wg.Wait()
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if s.planExact != 4*per || s.planRouted != 4*per {
		t.Errorf("exact/routed = %d/%d, want %d/%d", s.planExact, s.planRouted, 4*per, 4*per)
	}
	// Routed goroutines are i ∈ {1,3,5,7}: sum = Σ per·(1 + i/100).
	want := per * (4 + (1+3+5+7)/100.0)
	if diff := s.penaltySum - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("penalty sum = %v, want %v", s.penaltySum, want)
	}
	if s.maxPenalty != 1.07 {
		t.Errorf("max penalty = %v, want 1.07", s.maxPenalty)
	}
}

// TestPlansEndpointEmpty pins the zero-plan encoding: GET /plans on a
// server with no registered plans must return an empty JSON array, not
// null.
func TestPlansEndpointEmpty(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := strings.TrimSpace(string(body)); got != "[]" {
		t.Errorf("GET /plans with zero plans = %q, want []", got)
	}
	var infos []PlanInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Errorf("decoded %d plans, want 0", len(infos))
	}
}
