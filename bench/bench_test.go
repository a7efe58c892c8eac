package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func quickRun(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	var log bytes.Buffer
	cfg := runConfig{w: workloadByName(name), seed: seed, quick: true, trace: trace, log: &log}
	if trace {
		cfg.tracePath = filepath.Join(t.TempDir(), "spans.json")
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	if res.failed != 0 || !res.correct {
		t.Fatalf("%s: %d of %d operations failed\n%s", name, res.failed, res.attempted, log.String())
	}
	for _, phase := range []string{"cold ", "warm "} {
		if !strings.Contains(log.String(), phase) || !strings.Contains(log.String(), "failed 0") {
			t.Errorf("%s: no sent/ok/failed line for the %sphase:\n%s", name, phase, log.String())
		}
	}
	return res
}

// waitGoroutines waits for the goroutine count to come back to a baseline:
// every listener, client connection and generator goroutine a run started must
// be gone when it returns.
func waitGoroutines(t *testing.T, name string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines still running, %d before the run\n%s", name, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuickSmoke runs every workload once in -quick form and checks the shape
// of what comes out. It proves nothing about speed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once (about 20 s)")
	}
	refInit()
	baseline := runtime.NumGoroutine()
	for _, w := range workloads {
		res := quickRun(t, w.name, 1, false)
		line, err := resultLine(endToEnd, res)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var decoded struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &decoded); err != nil {
			t.Fatalf("%s: result line is not JSON: %v", w.name, err)
		}
		if !decoded.Correct || decoded.Attempted < 1 || decoded.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, decoded.Correct, decoded.Attempted, decoded.Failed)
		}
		if len(decoded.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(decoded.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := decoded.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.name, d.name, m, ok, d.unit)
			}
		}
		waitGoroutines(t, w.name, baseline)
	}
}

// TestTracedRun checks the per-layer side on the cheapest workload and the two
// zero-assertions the issue names.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer probes (about 5 s)")
	}
	refInit()
	baseline := runtime.NumGoroutine()
	res := quickRun(t, "search_wide", 1, true)
	if len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	if _, err := resultLine(perLayer, res); err != nil {
		t.Fatal(err)
	}
	if got := res.metrics["cluster.peer_requests"]; got != 0 {
		t.Errorf("cluster.peer_requests = %v on a workload with no fleet", got)
	}
	if got := res.metrics["core.blocks_searched"]; got <= 0 {
		t.Errorf("core.blocks_searched = %v on a cold search workload", got)
	}
	for _, name := range []string{"graph.blocks", "gpusim.runs", "core.search_ms", "serve.handler_us.optimize_hit", "serve.http_p50_us", "plan.build_ms", "batching.sim_goodput_rps", "host.ref_ms"} {
		if !(res.metrics[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, res.metrics[name])
		}
	}
	waitGoroutines(t, "search_wide traced", baseline)
}

// TestExactMetricsRepeat: allocation volume and schedule quality are the
// metrics meant to stay readable on a loud host, so two runs must agree.
func TestExactMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs search_wide twice")
	}
	a := quickRun(t, "search_wide", 3, false)
	b := quickRun(t, "search_wide", 3, false)
	if a.metrics["sched_speedup"] != b.metrics["sched_speedup"] {
		t.Errorf("sched_speedup %v vs %v: must be identical to the last digit", a.metrics["sched_speedup"], b.metrics["sched_speedup"])
	}
	if d := math.Abs(a.metrics["cold_alloc_mb"]/b.metrics["cold_alloc_mb"] - 1); d > 0.02 {
		t.Errorf("cold_alloc_mb %v vs %v: differ by %.1f%%", a.metrics["cold_alloc_mb"], b.metrics["cold_alloc_mb"], 100*d)
	}
}

func digestFor(w *workload, seed int64) [32]byte {
	graphJSON := map[string]json.RawMessage{}
	for _, m := range w.graphs {
		graphJSON[m] = json.RawMessage(`{"name":"` + m + `"}`)
	}
	cold := w.coldList(seed, graphJSON)
	schedules := map[string]json.RawMessage{}
	for _, k := range w.named {
		schedules[k.String()] = json.RawMessage(`{"stages":[]}`)
	}
	bag := w.warmMultiset(graphJSON, schedules)
	var clients [][]request
	for c := 0; c < 2; c++ {
		clients = append(clients, clientSequence(bag, seed, c))
	}
	return sequenceDigest(cold, clients)
}

func TestRequestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if digestFor(w, 7) != digestFor(w, 7) {
			t.Errorf("%s: the same seed gave two request sequences", w.name)
		}
		if digestFor(w, 7) == digestFor(w, 8) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w.name)
		}
	}
}

// The bag behind the sequence must not depend on the seed: that is what keeps
// allocation and byte counts comparable across seeds.
func TestWarmBagIsSeedIndependent(t *testing.T) {
	for _, w := range workloads {
		bag := w.warmMultiset(map[string]json.RawMessage{}, map[string]json.RawMessage{})
		count := func(seed int64) map[string]int {
			out := map[string]int{}
			for c := 0; c < 2; c++ {
				for _, r := range clientSequence(bag, seed, c) {
					out[r.method+r.path+string(r.body)+string(rune('0'+r.node%4))]++
				}
			}
			return out
		}
		a, b := count(1), count(2)
		if len(a) != len(b) {
			t.Fatalf("%s: %d distinct (request, node) pairs at seed 1, %d at seed 2", w.name, len(a), len(b))
		}
		total := 0
		for k, n := range a {
			if b[k] != n {
				t.Errorf("%s: %q sent %d times at seed 1, %d at seed 2", w.name, k, n, b[k])
			}
			total += n
		}
		total /= 2
		if total != w.warmPerClient {
			t.Errorf("%s: bag holds %d requests, want %d", w.name, total, w.warmPerClient)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", s.q1, s.median, s.q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	s = summarize([]float64{1, 2, 4})
	if s.q1 != 1 || s.median != 2 || s.q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v, want 1 2 4", s.q1, s.median, s.q3)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go and
// workload.go saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workload.go has %q / %q", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in metrics.go", d.name, g.Bound, d.bound)
			}
			if !metricName.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: not a valid unique metric name", d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cold []float64) string {
		path := filepath.Join(dir, name)
		for i, c := range cold {
			res := &result{correct: true, attempted: 10, metrics: map[string]float64{}}
			for _, d := range endToEnd {
				res.metrics[d.name] = 1
			}
			res.metrics["cold_norm_s"] = c
			line, err := resultLine(endToEnd, res)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := json.Marshal(runRecord{Workload: "search_wide", Seed: int64(i), Result: line})
			if err != nil {
				t.Fatal(err)
			}
			if err := appendLine(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{1.00, 1.01, 0.99, 1.02, 0.98})
	same := write("b.jsonl", []float64{1.01, 1.00, 1.02, 0.99, 1.03})
	slow := write("c.jsonl", []float64{1.30, 1.31, 1.29, 1.32, 1.28})
	loud := write("d.jsonl", []float64{0.70, 1.00, 1.40, 0.80, 1.20})

	for _, tc := range []struct {
		name, b string
		ok      bool
		want    string
	}{
		{"same code", same, true, "ok"},
		{"30% slower", slow, false, "REGRESSION"},
		{"spread beyond the bound", loud, true, "unresolved"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.ok || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: ok=%v, want %v and a %q row:\n%s", tc.name, ok, tc.ok, tc.want, out.String())
		}
	}
	if _, err := compareFiles(io.Discard, base, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("comparing with a missing file did not fail")
	}
}
