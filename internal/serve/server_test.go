package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/schedule"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{Logf: t.Logf})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestOptimizeInceptionEndToEnd is the acceptance scenario: POST /optimize
// for "inception_v3" answers with a schedule JSON that reconstructs and
// validates against the real Inception V3 graph.
func TestOptimizeInceptionEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	resp, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "inception_v3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if out.Model != "inception" || out.Batch != 1 || out.Device != "Tesla V100" {
		t.Fatalf("resolved %s/b%d/%s, want inception/b1/Tesla V100", out.Model, out.Batch, out.Device)
	}
	if out.Cached {
		t.Fatal("first request reported cached=true")
	}
	if out.LatencyMS <= 0 || out.SequentialMS < out.LatencyMS {
		t.Fatalf("latencies: ios=%.3f seq=%.3f; IOS must win", out.LatencyMS, out.SequentialMS)
	}
	if out.Speedup < 1 {
		t.Fatalf("speedup = %.2f, want >= 1", out.Speedup)
	}
	if out.Search.Measurements == 0 || out.Search.States == 0 {
		t.Fatalf("search stats empty: %+v", out.Search)
	}

	// The returned schedule JSON must reconstruct against the real graph
	// and validate as a feasible schedule covering every operator.
	g := models.InceptionV3(1)
	sched, err := schedule.FromJSON(out.Schedule, g)
	if err != nil {
		t.Fatalf("returned schedule does not parse: %v", err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatalf("returned schedule is infeasible: %v", err)
	}
	if got := sched.Summarize(); got != out.Summary {
		t.Fatalf("summary mismatch: response %+v vs reconstructed %+v", out.Summary, got)
	}

	// The same request again is a cache hit with the identical schedule.
	resp2, body2 := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "inception"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status %d", resp2.StatusCode)
	}
	var out2 OptimizeResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Cached {
		t.Fatal("second request missed the cache")
	}
	if !bytes.Equal(out.Schedule, out2.Schedule) {
		t.Fatal("cache returned a different schedule")
	}
}

func TestOptimizeConcurrentRequestsShareOneSearch(t *testing.T) {
	const N = 16
	s, ts := newTestServer(t)

	// postJSON is t.Fatal-based and therefore off-limits inside spawned
	// goroutines; collect errors on a channel instead.
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/optimize", "application/json",
				strings.NewReader(`{"model": "fig2"}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Cache().Stats()
	if st.Misses != 1 {
		t.Fatalf("%d concurrent requests caused %d optimizer runs, want 1", N, st.Misses)
	}
	if st.Hits+st.Coalesced != N-1 {
		t.Fatalf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, N-1)
	}
}

func TestOptimizeSubmittedGraph(t *testing.T) {
	_, ts := newTestServer(t)
	g := models.Figure2Block(2)
	raw, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Graph: raw})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.Model, "graph:") {
		t.Fatalf("model = %q, want graph:<fingerprint>", out.Model)
	}
	if out.Batch != 2 {
		t.Fatalf("batch = %d, want 2 (from the graph's input shape)", out.Batch)
	}

	// Submitting the identical graph again hits the fingerprint key.
	_, body2 := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Graph: raw})
	var out2 OptimizeResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Cached || out2.Model != out.Model {
		t.Fatalf("identical graph resubmission: cached=%v model=%q, want hit on %q", out2.Cached, out2.Model, out.Model)
	}
}

func TestMeasureBaselinesAndSchedules(t *testing.T) {
	_, ts := newTestServer(t)
	lat := map[string]float64{}
	for _, baseline := range []string{"ios", "sequential", "greedy"} {
		resp, body := postJSON(t, ts.URL+"/measure", MeasureRequest{Model: "squeezenet", Baseline: baseline})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", baseline, resp.StatusCode, body)
		}
		var out MeasureResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Source != baseline || out.LatencyMS <= 0 || out.Throughput <= 0 {
			t.Fatalf("%s: %+v", baseline, out)
		}
		lat[baseline] = out.LatencyMS
	}
	if lat["ios"] > lat["sequential"] {
		t.Fatalf("IOS (%.3f ms) slower than sequential (%.3f ms)", lat["ios"], lat["sequential"])
	}

	// Round-trip: measure a schedule produced by /optimize.
	_, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "squeezenet"})
	var opt OptimizeResponse
	if err := json.Unmarshal(body, &opt); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/measure", MeasureRequest{Model: "squeezenet", Schedule: opt.Schedule})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure schedule: status %d: %s", resp.StatusCode, body)
	}
	var out MeasureResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Source != "schedule" {
		t.Fatalf("source = %q, want schedule", out.Source)
	}
	if out.LatencyMS != opt.LatencyMS {
		t.Fatalf("re-measured latency %.6f ms != optimize's %.6f ms", out.LatencyMS, opt.LatencyMS)
	}

	// A merge stage over operators that cannot be merged (b reads a, c the
	// input) does not validate: the client's schedule, a 400
	// (FuzzFromJSON's find).
	unmergeable := `{"stages":[{"strategy":"concurrent","groups":[["a"],["d"]]},
		{"strategy":"merge","groups":[["b"],["c"]]},{"strategy":"concurrent","groups":[["concat"]]}]}`
	resp, body = postJSON(t, ts.URL+"/measure", MeasureRequest{Model: "fig2", Schedule: json.RawMessage(unmergeable)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unmergeable merge stage: status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not merge-eligible") {
		t.Fatalf("unmergeable merge stage rejected for something else: %s", body)
	}
}

func TestModelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(models.Zoo()) {
		t.Fatalf("%d models listed, want %d", len(infos), len(models.Zoo()))
	}
	byName := map[string]ModelInfo{}
	for _, m := range infos {
		byName[m.Name] = m
	}
	inc, ok := byName["inception"]
	if !ok || inc.Ops == 0 || inc.Width == 0 {
		t.Fatalf("inception entry missing or empty: %+v", inc)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "fig2"})
	postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "fig2"})

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests["optimize"] != 2 {
		t.Fatalf("optimize requests = %d, want 2", st.Requests["optimize"])
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss + 1 hit", st.Cache)
	}
	if st.Device != "Tesla V100" || st.Options == "" {
		t.Fatalf("stats identity: %+v", st)
	}
}

func TestWarm(t *testing.T) {
	s := NewServer(Config{})
	if err := s.Warm(context.Background(), []string{"fig2", "squeezenet"}, []int{1, 4}); err != nil {
		t.Fatal(err)
	}
	if got := s.Cache().Len(); got != 4 {
		t.Fatalf("cache holds %d entries after warming 2 models x 2 batches, want 4", got)
	}
	st := s.Cache().Stats()
	if st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("warm stats = %+v, want 4 misses", st)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	g := models.Figure2Block(1)
	raw, _ := g.MarshalJSON()

	cases := []struct {
		name string
		req  OptimizeRequest
	}{
		{"neither model nor graph", OptimizeRequest{}},
		{"both model and graph", OptimizeRequest{Model: "fig2", Graph: raw}},
		{"unknown model", OptimizeRequest{Model: "alexnet"}},
		{"unknown device", OptimizeRequest{Model: "fig2", Device: "tpu"}},
		{"negative batch", OptimizeRequest{Model: "fig2", Batch: -3}},
		{"batch conflicts with graph", OptimizeRequest{Graph: raw, Batch: 7}},
		{"malformed graph", OptimizeRequest{Graph: json.RawMessage(`{"nodes": [{"name": "x", "op": "conv"}]}`)}},
		{"repeated node name", OptimizeRequest{Graph: json.RawMessage(`{"nodes": [{"name": "x", "op": "input", "shape": [1, 3, 8, 8]}, {"name": "x", "op": "relu", "inputs": ["x"]}]}`)}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/optimize", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, body)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %q is not {\"error\": ...}", tc.name, body)
		}
	}

	// The route table: each route answers the wrong method with a 405 and
	// a JSON error, and counts the request under its /stats name. /infer
	// is a route on a server without batching too.
	routes := []struct{ method, path string }{
		{http.MethodGet, "/optimize"},
		{http.MethodGet, "/measure"},
		{http.MethodGet, "/infer"},
		{http.MethodPost, "/models"},
		{http.MethodPost, "/stats"},
		{http.MethodPost, "/plans"},
		{http.MethodPost, "/plans/fig2/V100/opts"},
		{http.MethodPost, "/healthz"},
	}
	for _, rt := range routes {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || err != nil || e["error"] == "" {
			t.Errorf("%s %s: status %d, error body %v (%v), want 405 with {\"error\": ...}", rt.method, rt.path, resp.StatusCode, e, err)
		}
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	want := map[string]int64{"optimize": int64(len(cases)) + 1, "measure": 1, "infer": 1, "models": 1,
		"stats": 2, "plans": 2, "healthz": 1, "cancelled": 0}
	if !reflect.DeepEqual(st.Requests, want) {
		t.Errorf("/stats requests = %v, want %v", st.Requests, want)
	}
}

// TestErrorContract lists every refusal a route gives with what it looks
// like on the wire: its status; a compact JSON body, {"error": ...} (the
// readiness probe's is its own), with Content-Type and Content-Length set;
// and whether /stats counts it under requests.cancelled.
func TestErrorContract(t *testing.T) {
	srv := NewServer(Config{Deadline: 250 * time.Millisecond, Batching: &BatchingConfig{SLO: 100 * time.Millisecond}})
	plain := NewServer(Config{})
	starting := NewServer(Config{})
	starting.SetReady(false)
	const post, get = http.MethodPost, http.MethodGet
	cases := []struct {
		name         string
		s            *Server
		method, path string
		body         string
		code         int
		cancelled    bool
	}{
		{"optimize: malformed JSON", srv, post, "/optimize", `{"model": "fig2"`, http.StatusBadRequest, false},
		{"optimize: body over the cap", srv, post, "/optimize", strings.Repeat("x", maxBodyBytes+1), http.StatusRequestEntityTooLarge, false},
		{"optimize: cold search past the deadline", srv, post, "/optimize", `{"model": "nasnet"}`, http.StatusServiceUnavailable, true},
		{"measure: unknown baseline", srv, post, "/measure", `{"model": "fig2", "baseline": "fastest"}`, http.StatusBadRequest, false},
		{"measure: schedule and baseline", srv, post, "/measure", `{"model": "fig2", "schedule": {}, "baseline": "greedy"}`, http.StatusBadRequest, false},
		{"measure: malformed schedule", srv, post, "/measure", `{"model": "fig2", "schedule": [1, 2]}`, http.StatusBadRequest, false},
		{"infer: batching disabled", plain, post, "/infer", `{"model": "fig2"}`, http.StatusNotFound, false},
		{"infer: no model", srv, post, "/infer", `{}`, http.StatusBadRequest, false},
		{"infer: unplanned model", srv, post, "/infer", `{"model": "fig2"}`, http.StatusNotFound, false},
		{"plan: too few segments", srv, get, "/plans/fig2/V100", "", http.StatusBadRequest, false},
		{"plan: unknown", srv, get, "/plans/fig2/V100/opts", "", http.StatusNotFound, false},
		{"healthz: starting", starting, get, "/healthz", "", http.StatusServiceUnavailable, false},
	}
	cancelled := func(s *Server) int64 {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(get, "/stats", nil))
		var st StatsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("/stats: %v", err)
		}
		return st.Requests["cancelled"]
	}
	for _, tc := range cases {
		before := cancelled(tc.s)
		w := httptest.NewRecorder()
		tc.s.ServeHTTP(w, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		body := w.Body.Bytes()
		if w.Code != tc.code {
			t.Errorf("%s: status %d (%.200s), want %d", tc.name, w.Code, body, tc.code)
		}
		if ct, cl := w.Header().Get("Content-Type"), w.Header().Get("Content-Length"); ct != "application/json" || cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Type %q, Content-Length %q for %d bytes", tc.name, ct, cl, len(body))
		}
		var m map[string]any
		err := json.Unmarshal(body, &m)
		if compact, _ := json.Marshal(m); err != nil || !bytes.Equal(body, append(compact, '\n')) {
			t.Errorf("%s: body %q is not one line of compact JSON (%v)", tc.name, body, err)
		}
		if tc.path == "/healthz" {
			if m["status"] != "starting" {
				t.Errorf("%s: body %s, want status starting", tc.name, body)
			}
		} else if msg, _ := m["error"].(string); msg == "" || len(m) != 1 {
			t.Errorf("%s: body %s is not {\"error\": ...}", tc.name, body)
		}
		if moved := cancelled(tc.s) != before; moved != tc.cancelled {
			t.Errorf("%s: requests.cancelled moved %v, want %v", tc.name, moved, tc.cancelled)
		}
	}
}

// TestOptimizeUnboundedPruningIsHonored is a regression test: a server
// configured with r=-1,s=-1 must run the genuinely exhaustive search (and
// cache it under the "none" fingerprint), not silently fall back to the
// default r=3,s=8 pruning via double default-filling.
func TestOptimizeUnboundedPruningIsHonored(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Options: core.Unpruned}))
	t.Cleanup(ts.Close)
	resp, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "fig2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Options != "IOS-Both/none" {
		t.Fatalf("options = %q, want IOS-Both/none", out.Options)
	}
	// The search must match a direct unpruned run, transition for
	// transition.
	direct, err := core.OptimizeContext(context.Background(), models.Figure2Block(1), profile.New(gpusim.TeslaV100), core.Unpruned)
	if err != nil {
		t.Fatal(err)
	}
	if out.Search.Transitions != direct.Stats.Transitions || out.Search.States != direct.Stats.States {
		t.Fatalf("served search (%d states, %d transitions) != direct unpruned search (%d states, %d transitions)",
			out.Search.States, out.Search.Transitions, direct.Stats.States, direct.Stats.Transitions)
	}
	// And it must differ from the default-pruned search on a graph where
	// the r=3 bound binds (fig2's 4-conv block admits 4-op endings).
	pruned, err := core.OptimizeContext(context.Background(), models.Figure2Block(1), profile.New(gpusim.TeslaV100), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Search.Transitions == pruned.Stats.Transitions {
		t.Fatalf("unpruned server examined the same %d transitions as the pruned search — pruning was silently applied", pruned.Stats.Transitions)
	}
}

// TestSearchOptionsInABodyAreIgnored: requests carry no search options, so
// a body that still names a strategy and unbounded pruning is answered
// byte for byte as the same body without them, under the server's options.
func TestSearchOptionsInABodyAreIgnored(t *testing.T) {
	s := NewServer(Config{})
	if _, _, err := optimizeOK(s, []byte(`{"model":"fig2"}`)); err != nil {
		t.Fatal(err)
	}
	_, want, err := optimizeOK(s, []byte(`{"model":"fig2"}`))
	if err != nil {
		t.Fatal(err)
	}
	out, got, err := optimizeOK(s, []byte(`{"model":"fig2","strategy":"merge","r":-1,"s":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("answer with search options in the body:\n%s\nwant the plain body's:\n%s", got, want)
	}
	if out.Options != s.cfg.Options.Fingerprint() {
		t.Errorf("options = %q, want the server's %q", out.Options, s.cfg.Options.Fingerprint())
	}
	if st := s.Cache().Stats(); st.Misses != 1 {
		t.Errorf("schedule-cache misses = %d, want 1 (one key, one search)", st.Misses)
	}
}

// TestDegenerateGraphResponsesStayJSON guards the NaN/Inf hole: a graph
// with no schedulable operators measures a latency of 0, and the response
// must still be valid JSON (Speedup/Throughput reported as 0) rather than
// a 200 with an empty body from a failed NaN encode.
func TestDegenerateGraphResponsesStayJSON(t *testing.T) {
	_, ts := newTestServer(t)
	inputOnly := json.RawMessage(`{"name":"empty","nodes":[{"name":"in","op":"input","shape":[1,3,8,8]}]}`)

	resp, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Graph: inputOnly})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d: %s", resp.StatusCode, body)
	}
	if len(body) == 0 {
		t.Fatal("optimize returned 200 with an empty body")
	}
	var out OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("optimize response is not JSON: %v (%s)", err, body)
	}
	if out.Speedup != 0 || out.Throughput != 0 || out.LatencyMS != 0 {
		t.Fatalf("degenerate graph: speedup=%v throughput=%v latency=%v, want all 0", out.Speedup, out.Throughput, out.LatencyMS)
	}

	resp, body = postJSON(t, ts.URL+"/measure", MeasureRequest{Graph: inputOnly, Baseline: "sequential"})
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("measure status %d, body %q", resp.StatusCode, body)
	}
	var m MeasureResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("measure response is not JSON: %v", err)
	}
	if m.Throughput != 0 {
		t.Fatalf("throughput = %v, want 0", m.Throughput)
	}
}

// TestMeasureIOSAnswersFromCacheEntry checks that baseline "ios" reuses
// the cached entry's stored latency instead of re-simulating, by pointing
// both endpoints at one key and comparing latencies exactly.
func TestMeasureIOSAnswersFromCacheEntry(t *testing.T) {
	s, ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "fig2"})
	var opt OptimizeResponse
	if err := json.Unmarshal(body, &opt); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/measure", MeasureRequest{Model: "fig2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var m MeasureResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if !m.Cached || m.Source != "ios" || m.LatencyMS != opt.LatencyMS {
		t.Fatalf("measure ios = %+v, want cached entry latency %.6f", m, opt.LatencyMS)
	}
	if st := s.Cache().Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (measure must not re-optimize)", st.Misses)
	}
}

// TestOversizedBodyIs413 checks that a request body over the limit gets
// 413, distinguishable from a malformed-JSON 400.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t)
	big := bytes.Repeat([]byte("x"), maxBodyBytes+1)
	resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("413 body not an error JSON: %v", err)
	}
}
