package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ios/internal/baseline"
	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/plan"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// discardWriter is a connection that keeps the status and counts the body:
// what the allocation budget is measured against.
type discardWriter struct {
	hdr  http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header  { return w.hdr }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

// post sends one request straight into the handler: no loopback, no client.
func post(s *Server, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, newPost(path, body))
	return w.Code, w.Body.Bytes()
}

func newPost(path string, body []byte) *http.Request {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the method and the paths are constants
	}
	return req
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// optimizeOK posts one /optimize and decodes its 200.
func optimizeOK(s *Server, body []byte) (OptimizeResponse, []byte, error) {
	var out OptimizeResponse
	code, raw := post(s, "/optimize", body)
	if code != http.StatusOK {
		return out, raw, fmt.Errorf("status %d: %s", code, raw)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil || !bytes.Equal(append(compact.Bytes(), '\n'), raw) {
		return out, raw, fmt.Errorf("body is not compact JSON and a newline (%v): %.80s", err, raw)
	}
	return out, raw, json.Unmarshal(raw, &out)
}

// searched is the schedule a bare search of g under s's options finds — a
// fresh profiler, no block cache: what the entry for g's key on s was
// rendered from, found again without it.
func searched(t *testing.T, s *Server, g *graph.Graph) *schedule.Schedule {
	t.Helper()
	out, err := core.OptimizeContext(context.Background(), g, profile.New(s.cfg.Device), s.cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	return out.Schedule
}

// structEncoded is the answer the per-request struct encoder used to build
// from a cache entry and the schedule it was found with: the reference the
// rendered bytes must decode equal to.
func structEncoded(t *testing.T, e *Entry, sched *schedule.Schedule) OptimizeResponse {
	t.Helper()
	indented, err := sched.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	return OptimizeResponse{
		Model:        e.Key.Model,
		Device:       e.Key.Device,
		Batch:        e.Key.Batch,
		Options:      e.Key.Opts,
		LatencyMS:    1e3 * e.Latency,
		SequentialMS: 1e3 * e.SequentialLatency,
		Speedup:      ratio(e.SequentialLatency, e.Latency),
		Throughput:   ratio(float64(e.Key.Batch), e.Latency),
		Summary:      sched.Summarize(),
		Schedule:     compact.Bytes(),
		Search: SearchInfo{
			Blocks:       e.Stats.Blocks,
			States:       e.Stats.States,
			Transitions:  e.Stats.Transitions,
			Measurements: e.Stats.Measurements,
			WallMS:       float64(e.Stats.WallTime) / float64(time.Millisecond),
		},
	}
}

// TestRenderedAnswersMatchStructEncoder: for every zoo model, the first
// answer says "cached":false, every later one "cached":true with the very
// same bytes, and all of them decode to what encoding the struct per
// request produced; the entry holds its schedule's JSON once, inside those
// bytes.
func TestRenderedAnswersMatchStructEncoder(t *testing.T) {
	s := NewServer(Config{})
	for _, name := range models.ZooNames() {
		if raceEnabled && name == "nasnet" {
			continue // a minute of search under the detector; randwire covers the deep case
		}
		body := mustMarshal(t, OptimizeRequest{Model: name})
		first, _, err := optimizeOK(s, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if first.Cached {
			t.Errorf("%s: first answer says cached", name)
		}
		second, raw2, err := optimizeOK(s, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, raw3, _ := optimizeOK(s, body)
		if !second.Cached || !bytes.Equal(raw2, raw3) {
			t.Errorf("%s: later answers: cached=%v, same bytes=%v", name, second.Cached, bytes.Equal(raw2, raw3))
		}
		e, ok := s.Cache().Lookup(Key{Model: name, Batch: 1, Device: "Tesla V100", Opts: s.optsFP})
		if !ok {
			t.Fatalf("%s: no cache entry", name)
		}
		entry, _ := models.EntryByName(name)
		want := structEncoded(t, e, searched(t, s, entry.Build(1)))
		if !reflect.DeepEqual(first, want) {
			t.Errorf("%s: first answer\n got %+v\nwant %+v", name, first, want)
		}
		want.Cached = true
		if !reflect.DeepEqual(second, want) {
			t.Errorf("%s: cached answer\n got %+v\nwant %+v", name, second, want)
		}
		if !bytes.Equal(e.body, raw2) {
			t.Errorf("%s: a hit was not answered with the entry's one rendered body", name)
		}
	}
}

// TestExternalEntryServedIdentically: an entry put into the schedule cache
// from outside Server.entry, rendered by newEntry from a search of its own,
// is served as the bytes a server-computed entry has.
func TestExternalEntryServedIdentically(t *testing.T) {
	body := mustMarshal(t, OptimizeRequest{Model: "squeezenet"})
	own := NewServer(Config{})
	if _, _, err := optimizeOK(own, body); err != nil {
		t.Fatal(err)
	}
	_, want, err := optimizeOK(own, body)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Model: "squeezenet", Batch: 1, Device: "Tesla V100", Opts: own.optsFP}
	src, _ := own.Cache().Lookup(key)

	g := models.SqueezeNet(1)
	sched := searched(t, own, g)

	prof := profile.New(own.cfg.Device)
	lat, err := prof.MeasureSchedule(sched)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewScheduleCache(4)
	_, _, err = cache.GetOrCompute(context.Background(), key, func(context.Context) (*Entry, error) {
		return newEntry(key, prof, g, sched, lat, src.Stats, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	other := NewServer(Config{Cache: cache})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, got, err := optimizeOK(other, body); err != nil || !bytes.Equal(got, want) {
				t.Errorf("external entry: err %v\n got %s\nwant %s", err, got, want)
			}
		}()
	}
	wg.Wait()
}

// TestPlanAnswersRenderedOnce: a plan-served answer, at an exact and at a
// routed batch, is the same bytes from the first request on and decodes to
// the plan's own numbers.
func TestPlanAnswersRenderedOnce(t *testing.T) {
	s := NewServer(Config{})
	if err := s.WarmPlans(context.Background(), []string{"inception"}, []int{1, 8}); err != nil {
		t.Fatal(err)
	}
	p := s.LookupPlan("inception", "Tesla V100", s.optsFP)
	for _, batch := range []int{8, 5} {
		body := mustMarshal(t, OptimizeRequest{Model: "inception", Batch: batch})
		first, raw1, err := optimizeOK(s, body)
		if err != nil {
			t.Fatal(err)
		}
		_, raw2, _ := optimizeOK(s, body)
		if !first.Cached || !bytes.Equal(raw1, raw2) {
			t.Errorf("batch %d: cached=%v, same bytes=%v", batch, first.Cached, bytes.Equal(raw1, raw2))
		}
		pt, penalty, exact := p.Route(batch)
		if first.Plan == nil || *first.Plan != (PlanRoute{PlannedBatch: pt.Batch, Exact: exact, Penalty: penalty}) {
			t.Errorf("batch %d: plan route %+v", batch, first.Plan)
		}
		if first.Batch != batch || first.Model != "inception" || first.Search != (SearchInfo{}) {
			t.Errorf("batch %d: answer %+v", batch, first)
		}
		if exact {
			want := structEncoded(t, &Entry{}, pt.Schedule)
			if first.LatencyMS != 1e3*pt.Latency || !bytes.Equal(first.Schedule, want.Schedule) || first.Summary != want.Summary {
				t.Errorf("batch %d: exact answer differs from the plan point", batch)
			}
		}
	}
}

// TestWarmAnswersUnderPurgeAndReRegister: 8 clients on one cached key and
// one plan-routed key read the same answers while the plan is
// re-registered under them. (The schedule cache has no purge: entries
// leave it only by eviction, which TestSubmissionHitAfterEviction covers.)
func TestWarmAnswersUnderPurgeAndReRegister(t *testing.T) {
	s := NewServer(Config{})
	ctx := context.Background()
	if err := s.WarmPlans(ctx, []string{"inception"}, []int{1, 8}); err != nil {
		t.Fatal(err)
	}
	plans := []*plan.Plan{s.LookupPlan("inception", "Tesla V100", s.optsFP)}
	if err := s.WarmPlans(ctx, []string{"inception"}, []int{1, 8}); err != nil {
		t.Fatal(err)
	}
	plans = append(plans, s.LookupPlan("inception", "Tesla V100", s.optsFP))

	bodies := [][]byte{
		mustMarshal(t, OptimizeRequest{Model: "squeezenet"}),
		mustMarshal(t, OptimizeRequest{Model: "inception", Batch: 5}),
	}
	// What moves when an answer is recomputed is not part of the answer.
	stable := func(r OptimizeResponse) OptimizeResponse {
		r.Cached, r.Search = false, SearchInfo{}
		return r
	}
	var want [2]OptimizeResponse
	for i, b := range bodies {
		r, _, err := optimizeOK(s, b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = stable(r)
	}

	stop := make(chan struct{})
	var churn, clients sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.RegisterPlan(plans[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for c := 0; c < 8; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for i := 0; i < 50; i++ {
				k := (c + i) % 2
				got, _, err := optimizeOK(s, bodies[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(stable(got), want[k]) {
					t.Errorf("request %d of client %d:\n got %+v\nwant %+v", i, c, stable(got), want[k])
					return
				}
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	churn.Wait()
}

// TestPlanMemoStaysWithinCap: 2 x cap distinct batches against one plan
// leave its record at the cap, and the overflow is still answered.
func TestPlanMemoStaysWithinCap(t *testing.T) {
	s := NewServer(Config{})
	if err := s.WarmPlans(context.Background(), []string{"fig2"}, []int{1, 8}); err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= 2*planMemoCap; b++ {
		r, _, err := optimizeOK(s, mustMarshal(t, OptimizeRequest{Model: "fig2", Batch: b}))
		if err != nil || r.Batch != b || r.Plan == nil || r.LatencyMS <= 0 {
			t.Fatalf("batch %d: %v, %+v", b, err, r)
		}
	}
	rec := s.planFor(Key{Model: "fig2", Device: "Tesla V100", Opts: s.optsFP})
	if got := rec.answers.Len(); got != planMemoCap {
		t.Errorf("plan holds %d answers, cap %d", got, planMemoCap)
	}
}

// TestDeclaredLengthIsNotPreallocated: a request that declares the largest
// body the server takes and sends a small one costs what the small one
// costs; Content-Length is the client's word.
func TestDeclaredLengthIsNotPreallocated(t *testing.T) {
	s := NewServer(Config{})
	body := mustMarshal(t, OptimizeRequest{Model: "fig2"})
	if _, _, err := optimizeOK(s, body); err != nil {
		t.Fatal(err)
	}
	got := allocPerRequest(t, s, 20, func() *http.Request {
		req := newPost("/optimize", body)
		req.ContentLength = maxBodyBytes
		return req
	})
	if got > 4*maxPresizeBytes {
		t.Errorf("%.0f B allocated per request declaring %d B and sending %d", got, maxBodyBytes, len(body))
	}
}

// allocPerRequest is what n requests sent straight into the handler, each
// answered 200 into a discarding writer, allocate per request — building
// the request included.
func allocPerRequest(t *testing.T, s *Server, n int, request func() *http.Request) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		w := &discardWriter{hdr: http.Header{}}
		s.ServeHTTP(w, request())
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("status %d, %d bytes", w.code, w.n)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestWarmHitAllocBudget is the regression gate of the warm path: a cached
// /optimize costs what decoding the request and looking the answer up
// cost, whatever the answer's size (the per-request encoder allocated
// 21.5 / 28.5 / 28.4 / 50.3 KB for these four; a fresh body buffer per
// request, 2.2 KB; a pooled one, 1.7 KB). A repeated graph submission
// costs what hashing its bytes costs (parsing, partitioning and
// fingerprinting Inception V3 again allocated 295 KB; copying its bytes
// into a fresh buffer and again into the request, 39 KB; reading them into
// a pooled buffer the request's graph field aliases, 1.8 KB), and a
// /measure of a cached key answers from its entry (rebuilding SqueezeNet
// allocated 46 KB sequential and 52 KB with a schedule; taking the entry's
// graph, 27 and 33 KB; measuring the baseline once per entry and quoting
// the returned schedule, 3.8 and 7.8 KB; with pooled bodies and an aliased
// schedule field, 2.3 and 2.8 KB). A plan's first answer at an unplanned
// batch lowers the graph on one profiler for both of its measurements
// (two fresh ones allocated 147 KB for Inception V3 at batch 5; one, 110).
// Request construction is included. A repeated submission padded past
// 64 KB reads into a pooled buffer too (one allocated and dropped per
// request cost 75.5 KB while the keep bound sat below its capacity).
func TestWarmHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	s := NewServer(Config{})
	if err := s.WarmPlans(context.Background(), []string{"inception"}, []int{1, 8, 32, 128}); err != nil {
		t.Fatal(err)
	}
	budget := func(path string, body []byte, max float64, why string) {
		t.Helper()
		got := allocPerRequest(t, s, 200, func() *http.Request { return newPost(path, body) })
		t.Logf("%s %.60s: %.0f B per warm request", path, body, got)
		if got > max {
			t.Errorf("%s %.60s allocates %.0f B per warm request, budget %.0f: %s", path, body, got, max, why)
		}
	}
	for _, req := range []OptimizeRequest{{Model: "squeezenet"}, {Model: "resnet50"}, {Model: "randwire"}, {Model: "inception", Batch: 5}} {
		body := mustMarshal(t, req)
		if _, _, err := optimizeOK(s, body); err != nil {
			t.Fatal(err)
		}
		budget("/optimize", body, 3<<10, "is the answer encoded per request again, or the body buffer no longer pooled?")
	}

	raw, err := models.InceptionV3(1).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := mustMarshal(t, OptimizeRequest{Graph: raw})
	if _, _, err := optimizeOK(s, body); err != nil {
		t.Fatal(err)
	}
	budget("/optimize", body, 4<<10, "is a repeated submission parsed again, or its bytes copied?")
	// The same graph padded to 66,016 bytes, past 64 KB: its presized
	// buffer (72 KB) must go back to the pool like a small one's.
	padded := append(body[:len(body)-1:len(body)-1], bytes.Repeat([]byte(" "), 66016-len(body))...)
	padded = append(padded, '}')
	if _, _, err := optimizeOK(s, padded); err != nil {
		t.Fatal(err)
	}
	budget("/optimize", padded, 4<<10, "is a body past 64 KB read into a fresh buffer, the pool's keep bound below what a presize allocates?")

	opt, _, err := optimizeOK(s, mustMarshal(t, OptimizeRequest{Model: "squeezenet"}))
	if err != nil {
		t.Fatal(err)
	}
	budget("/measure", mustMarshal(t, MeasureRequest{Model: "squeezenet", Baseline: "sequential"}), 4<<10,
		"is the baseline built and measured again instead of taken from the cached entry?")
	budget("/measure", mustMarshal(t, MeasureRequest{Model: "squeezenet", Schedule: opt.Schedule}), 4<<10,
		"is the returned schedule copied, or parsed and measured again instead of quoted from the cached entry?")

	// A plan's first answer at an unplanned batch, on a warm measurement
	// cache: the plan's answers are dropped before each request, so every
	// one routes, transfers, measures and renders.
	rec := s.planFor(Key{Model: "inception", Device: s.cfg.Device.Name, Opts: s.optsFP})
	body = mustMarshal(t, OptimizeRequest{Model: "inception", Batch: 5})
	first := allocPerRequest(t, s, 50, func() *http.Request {
		// Taken back and abandoned, the answer is gone from the core.
		if e, ok := rec.answers.Lookup(answerKey(5)); ok {
			_, cl, _ := rec.answers.ReplaceOrBegin(nil, answerKey(5), e)
			cl.Abandon()
		}
		return newPost("/optimize", body)
	})
	t.Logf("/optimize %s, first answer: %.0f B per request", body, first)
	if first > 128<<10 {
		t.Errorf("a plan's first answer at an unplanned batch allocates %.0f B, budget %d: is the graph lowered on a second profiler again?", first, 128<<10)
	}
}

// TestAnswersRetainTheirBodies is the schedule cache's byte bound per
// answer: distinct 2,000-op chain submissions (1×1 convolutions on 8×8
// inputs, 113 KB answers) leave, after two collections, at most twice
// their rendered bodies live in the server. Entries that hold their parsed
// graph and schedule as well retain about 7.6 times.
func TestAnswersRetainTheirBodies(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const n, ops = 4, 2000
	// The block and measurement caches outlive the server: what it frees
	// is its answers, its tables and itself.
	blocks, measures := blockcache.NewCacheSize(DefaultBlockCacheSize), measure.NewCacheSize(DefaultMeasureCacheSize)
	s := NewServer(Config{BlockCache: blocks, MeasureCache: measures})
	for i := 0; i < n; i++ {
		g := graph.New("chain")
		x := g.Input("in", graph.Shape{N: 1, C: 8 + i, H: 8, W: 8})
		for j := 0; j < ops; j++ {
			x = g.Conv(fmt.Sprintf("c%d", j), x, graph.ConvOpts{Out: 8 + i, Kernel: 1})
		}
		if _, _, err := optimizeOK(s, mustMarshal(t, OptimizeRequest{Graph: graphJSON(t, g)})); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Cache().Keys()
	if len(keys) != n {
		t.Fatalf("%d entries for %d distinct submissions", len(keys), n)
	}
	bodies := 0
	for _, k := range keys {
		e, _ := s.Cache().Lookup(k)
		bodies += len(e.body)
	}
	live := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	held := live()
	runtime.KeepAlive(s) // the last use: the next collection frees the server
	retained := held - live()
	runtime.KeepAlive(blocks)
	runtime.KeepAlive(measures)
	t.Logf("%d answers: %d bytes rendered, %d retained (%.2f×)", n, bodies, retained, float64(retained)/float64(bodies))
	if retained > 2*int64(bodies) {
		t.Errorf("%d answers with %d bytes of bodies retain %d bytes: does an entry hold its graph or schedule again?", n, bodies, retained)
	}
}

// TestMeasureFromEntryIsByteIdentical: on a cached key, /measure answers the
// schedule bytes /optimize returned and both baselines from the entry, byte
// for byte what a server that never optimized the key answers; the
// sequential baseline was measured with the search, and repeat calls
// measure nothing. A re-indented copy of the schedule and another valid
// schedule are parsed and measured as before.
func TestMeasureFromEntryIsByteIdentical(t *testing.T) {
	inception := models.InceptionV3(1)
	for _, target := range []struct {
		MeasureRequest
		g *graph.Graph
	}{{MeasureRequest{Model: "squeezenet"}, models.SqueezeNet(1)}, {MeasureRequest{Graph: graphJSON(t, inception)}, inception}} {
		warm, cold := NewServer(Config{}), NewServer(Config{})
		opt, _, err := optimizeOK(warm, mustMarshal(t, OptimizeRequest{Model: target.Model, Graph: target.Graph}))
		if err != nil {
			t.Fatal(err)
		}
		e, ok := warm.Cache().Lookup(Key{Model: opt.Model, Batch: opt.Batch, Device: opt.Device, Opts: opt.Options})
		if !ok {
			t.Fatalf("%s: no entry after /optimize", opt.Model)
		}
		// The schedule goes into the body as given: json.Marshal would
		// compact a re-indented one.
		measure := func(s *Server, sched []byte, which string) []byte {
			t.Helper()
			req := target.MeasureRequest
			req.Baseline = which
			body := mustMarshal(t, req)
			if sched != nil {
				body = append(append(append(body[:len(body)-1], `,"schedule":`...), sched...), '}')
			}
			code, answer := post(s, "/measure", body)
			if code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", opt.Model, which, code, answer)
			}
			return answer
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, opt.Schedule, "", "  "); err != nil {
			t.Fatal(err)
		}
		// Two other valid schedules: the greedy baseline, and the returned
		// one with a stage's first two groups swapped, which has the
		// returned bytes' length.
		greedy, err := baseline.Greedy(target.g)
		if err != nil {
			t.Fatal(err)
		}
		swapped, err := schedule.FromJSON(opt.Schedule, target.g)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range swapped.Stages {
			if len(st.Groups) > 1 {
				st.Groups[0], st.Groups[1] = st.Groups[1], st.Groups[0]
				break
			}
		}
		compact := func(s *schedule.Schedule) []byte {
			t.Helper()
			var out bytes.Buffer
			raw, err := s.MarshalJSON()
			if err == nil {
				err = json.Compact(&out, raw)
			}
			if err != nil {
				t.Fatal(err)
			}
			return out.Bytes()
		}
		if bytes.Equal(compact(swapped), opt.Schedule) || len(compact(swapped)) != len(opt.Schedule) {
			t.Fatalf("%s: swapping two groups made no same-length twin", opt.Model)
		}
		returned := measure(cold, opt.Schedule, "")
		for _, c := range []struct {
			name      string
			sched     []byte
			baseline  string
			fromEntry bool
		}{
			{"returned schedule", opt.Schedule, "", true},
			{"sequential", nil, "sequential", true},
			{"greedy", nil, "greedy", true},
			{"re-indented schedule", indented.Bytes(), "", false},
			{"greedy schedule", compact(greedy), "", false},
			{"swapped schedule", compact(swapped), "", false},
		} {
			want := measure(cold, c.sched, c.baseline)
			if c.name == "re-indented schedule" && !bytes.Equal(want, returned) {
				t.Errorf("%s: re-indented schedule answers\n%s, the compact one\n%s", opt.Model, want, returned)
			}
			for i := 0; i < 3; i++ {
				ms, cs := warm.MeasureCache().Stats(), warm.Cache().Stats()
				if got := measure(warm, c.sched, c.baseline); !bytes.Equal(got, want) {
					t.Errorf("%s %s call %d:\n got %s\nwant %s", opt.Model, c.name, i, got, want)
				}
				ms2, cs2 := warm.MeasureCache().Stats(), warm.Cache().Stats()
				if cs2.Hits != cs.Hits || cs2.Misses != cs.Misses || (i > 0 && ms2.Misses != ms.Misses) {
					t.Errorf("%s %s call %d: measure misses %d → %d, schedule cache hits %d → %d, misses %d → %d",
						opt.Model, c.name, i, ms.Misses, ms2.Misses, cs.Hits, cs2.Hits, cs.Misses, cs2.Misses)
				}
				// The entry path looks no stage up; the parse path, and the
				// greedy baseline's first call, measure through the cache.
				looked := ms2.Hits+ms2.Misses != ms.Hits+ms.Misses
				if looked != (!c.fromEntry || (i == 0 && c.baseline == "greedy")) {
					t.Errorf("%s %s call %d: measurement cache hits %d → %d, misses %d → %d",
						opt.Model, c.name, i, ms.Hits, ms2.Hits, ms.Misses, ms2.Misses)
				}
			}
		}
		if m := e.sequential.Load(); m == nil || math.Float64bits(m.lat) != math.Float64bits(e.SequentialLatency) {
			t.Errorf("%s: sequential slot %+v, entry's %v", opt.Model, m, e.SequentialLatency)
		}
		if st := cold.Cache().Stats(); st.Misses != 0 || st.Size != 0 {
			t.Errorf("%s: the reference server optimized: %+v", opt.Model, st)
		}
	}
}
