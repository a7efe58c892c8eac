package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ios/internal/baseline"
	"ios/internal/batching"
	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/plan"
	"ios/internal/profile"
	"ios/internal/schedule"
	"ios/internal/sfcache"
)

// DefaultMeasureCacheSize bounds the measurement cache a zero Config gets.
// The serving tier measures arbitrary client-supplied graphs, so an
// unbounded cache would grow monotonically for the life of the daemon; this
// cap comfortably holds the full model zoo (a complete NasNet-A search
// resides in ~117k fingerprints) while bounding memory. Entries over
// capacity are shed and simply re-simulated on next use.
const DefaultMeasureCacheSize = 1 << 18

// DefaultBlockCacheSize bounds the whole-block schedule cache a zero Config
// gets. One entry is a complete block schedule (a few stages of small index
// lists), and real networks contribute a handful of distinct block
// structures each, so this cap holds the zoo many times over while bounding
// a daemon optimizing arbitrary client graphs. Entries over capacity are
// shed and simply re-searched on next use.
const DefaultBlockCacheSize = 1 << 14

// DefaultCacheSize is the schedule-cache capacity a zero Config gets: big
// enough for every zoo model at several batch sizes on several devices.
const DefaultCacheSize = 256

// maxBodyBytes bounds request bodies (graph JSONs are well under this);
// maxPresizeBytes bounds what a request's Content-Length alone can make the
// server allocate before any of the body has arrived. Plus bytes.MinRead it
// is nine whole pages, which the allocator does not round past bodies' bound.
const (
	maxBodyBytes    = 16 << 20
	maxPresizeBytes = 72<<10 - bytes.MinRead
)

// Config configures a Server. The zero value serves the V100 with paper
// defaults and caches of the server's own: a schedule cache of
// DefaultCacheSize, a measurement cache of DefaultMeasureCacheSize and a
// block cache of DefaultBlockCacheSize entries. To share a cache, pass the
// same one to several servers.
type Config struct {
	// Device is the default device for requests that do not name one.
	// Zero value: the Tesla V100 (the paper's primary GPU).
	Device gpusim.Spec
	// Options is the search configuration every request runs under (zero
	// value: IOS-Both, r=3, s=8); requests carry no search options.
	Options core.Options
	// Cache holds finished answers (see Entry); nil allocates a fresh
	// NewScheduleCache(DefaultCacheSize), which holds DefaultCacheSize
	// entries before it sheds any. Sharing one cache between servers
	// shares their schedules and its capacity. A failed or cancelled
	// search caches nothing: a request waiting on its key searches again.
	Cache *ScheduleCache
	// MeasureCache deduplicates simulator stage measurements by
	// structural fingerprint across every request this server runs
	// (searches on schedule-cache misses, baseline measurements, warm
	// precomputation). nil allocates a fresh
	// measure.NewCacheSize(DefaultMeasureCacheSize). Sharing one cache
	// between servers shares their measurements; results are bit-identical
	// with or without it.
	MeasureCache *measure.Cache
	// BlockCache deduplicates whole-block DP searches by canonical
	// structural fingerprint across every optimization this server runs.
	// nil allocates a fresh blockcache.NewCacheSize(DefaultBlockCacheSize).
	// Sharing one cache between servers shares their block schedules;
	// results are bit-identical with or without it — only the number of
	// block searches drops.
	BlockCache *blockcache.Cache
	// Batching, when non-nil, enables the traffic-adaptive auto-batching
	// front end: POST /infer coalesces single-image (or small-batch)
	// inference requests into batches chosen from each registered plan's
	// measured performance model under the configured SLO. nil disables
	// /infer (a POST gets 404).
	Batching *BatchingConfig
	// Deadline, when positive, bounds each request's server-side
	// processing time: the request context gets this timeout, a search
	// the request started stops when it expires (a request still waiting
	// on the key takes the search over), and the requester receives 503 +
	// a JSON error. Zero means no server-side deadline — requests are
	// still cancelled when their client disconnects.
	Deadline time.Duration
	// Logf, when set, receives one line per served request.
	Logf func(format string, args ...any)
}

// Server serves IOS schedules over HTTP. Endpoints:
//
//	POST /optimize  optimize a zoo model or submitted graph (cached)
//	POST /measure   measure a schedule or baseline on a device
//	POST /infer     auto-batched inference against a registered plan
//	GET  /models    list the model zoo
//	GET  /stats     cache and traffic counters
//	GET  /plans[/<model>/<device>/<options>]  registered plans; one, as persisted
//	GET  /healthz   readiness probe
//
// Every response is compact JSON (pipe it to jq to read it); errors use
// {"error":"..."} with a 4xx/5xx status. Server implements http.Handler
// and is safe for concurrent use.
type Server struct {
	cfg     Config
	cache   *ScheduleCache
	measure *measure.Cache
	blocks  *blockcache.Cache
	mux     *http.ServeMux
	start   time.Time
	optsFP  string // cfg.Options' fingerprint: the Opts of every request's key

	// requests counts each route's requests under its /stats name, plus
	// "cancelled"; NewServer fills it and nothing adds a key after.
	requests map[string]*atomic.Int64

	// ready gates GET /healthz: true once start-up work (cache loads,
	// warm precompute) is done. NewServer starts ready — embedders that
	// warm flip it off first (see SetReady) — so the zero config needs
	// no extra call.
	ready atomic.Bool

	// The plan registry, keyed by the specialization axes minus batch
	// (which plans span). planMu also guards every record's batcher, and
	// the float penalty counters, which atomics cannot cover.
	planMu      sync.Mutex
	plans       map[planKey]*registered // guarded by planMu
	planExact   int64                   // guarded by planMu
	planRouted  int64                   // guarded by planMu
	penaltySum  float64                 // guarded by planMu
	lastPenalty float64                 // guarded by planMu
	maxPenalty  float64                 // guarded by planMu

	// submissions maps the SHA-256 of a graph submission's exact bytes to
	// what they resolved to, for successful resolutions only; it holds no
	// graph and no bytes.
	submissions *sfcache.Core[submission]
}

// planKey addresses a registered plan: a serving Key minus the batch.
type planKey struct {
	model, device, opts string
}

// registered is one registered plan with what it serves: its answer per
// requested batch (at most planMemoCap for this plan), an Entry keyed by the
// batch's varint, and its auto-batcher, created on the plan's first /infer
// request.
// Registering a plan under the same key replaces the whole record, so the
// old answers go with it and its batcher is closed. batcher is under
// Server.planMu.
type registered struct {
	plan    *plan.Plan
	answers *sfcache.Core[*Entry]
	batcher *batching.Batcher
}

// planMemoCap is the capacity of each plan's answer core: requests choose
// the batch, so an adversarial client could otherwise grow them without
// limit. Past it the core sheds arbitrary answers: values are
// deterministic, so an evicted batch is merely recomputed when next asked
// for.
const planMemoCap = 4096

// NewServer returns a ready-to-mount server.
func NewServer(cfg Config) *Server {
	if cfg.Device.Name == "" {
		cfg.Device = gpusim.TeslaV100
	}
	cfg.Options = cfg.Options.Canonical()
	cache := cfg.Cache
	if cache == nil {
		cache = NewScheduleCache(DefaultCacheSize)
	}
	mc := cfg.MeasureCache
	if mc == nil {
		mc = measure.NewCacheSize(DefaultMeasureCacheSize)
	}
	bc := cfg.BlockCache
	if bc == nil {
		bc = blockcache.NewCacheSize(DefaultBlockCacheSize)
	}
	s := &Server{cfg: cfg, cache: cache, measure: mc, blocks: bc, mux: http.NewServeMux(), start: time.Now(),
		optsFP: cfg.Options.Fingerprint(), plans: make(map[planKey]*registered),
		submissions: sfcache.NewCore[submission](submissionCap),
		requests:    map[string]*atomic.Int64{"cancelled": new(atomic.Int64)}}
	infer := postRoute("/infer", s.handleInfer)
	if cfg.Batching == nil { // refused before any body is read
		infer.reads, infer.handle = false, func(context.Context, *http.Request, []byte) (answer, error) {
			return answer{}, &statusError{http.StatusNotFound, errors.New("auto-batching is disabled (start the server with a Batching config, e.g. iosserve -auto-batch)")}
		}
	}
	// The route table: each request is counted under its path's name
	// ("plans" for both plan routes), then runs the pipeline.
	for _, rt := range []route{
		postRoute("/optimize", s.handleOptimize),
		postRoute("/measure", s.handleMeasure),
		infer,
		getRoute("/models", s.handleModels),
		getRoute("/stats", s.handleStats),
		getRoute("/plans", s.handlePlans),
		getRoute("/plans/", s.handlePlanGet),
		getRoute("/healthz", s.handleHealthz),
	} {
		rt, name := rt, strings.Trim(rt.path, "/")
		if s.requests[name] == nil {
			s.requests[name] = new(atomic.Int64)
		}
		n := s.requests[name]
		s.mux.HandleFunc(rt.path, func(w http.ResponseWriter, r *http.Request) {
			n.Add(1)
			s.serve(w, r, rt)
		})
	}
	s.ready.Store(true)
	return s
}

// SetReady flips the GET /healthz readiness gate. A server is born ready;
// embedders doing start-up work (loading persisted caches, warm
// precompute, plan sweeps) flip it off before and on after, so cluster
// membership and load balancers only route to nodes whose warm state is
// actually in place.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the current GET /healthz readiness state.
func (s *Server) Ready() bool { return s.ready.Load() }

// RegisterPlan validates and registers a batch-specialization plan for
// routing. A plan replaces any earlier plan with the same (model, device,
// options) key, and with it that plan's answers and its auto-batcher:
// the replaced batcher dispatches what it has queued and stops. Plans for
// zoo models must use the canonical zoo name (models.ZooEntry.Name) as
// their Model to match request resolution.
func (s *Server) RegisterPlan(p *plan.Plan) error {
	if p == nil {
		return fmt.Errorf("serve: nil plan")
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("serve: register plan: %w", err)
	}
	key := planKey{p.Model, p.Device, p.Opts}
	s.planMu.Lock()
	old := s.plans[key]
	s.plans[key] = &registered{plan: p, answers: sfcache.NewCore[*Entry](planMemoCap)}
	s.planMu.Unlock()
	// Out of the map, old gets no batcher any more (submit sets one only on
	// the current record). Close drains: its queued requests are answered
	// from the old plan, and one it refuses is retried on the new.
	if old != nil && old.batcher != nil {
		return old.batcher.Close()
	}
	return nil
}

// registry returns every registered plan with its batcher (nil before the
// plan's first /infer), sorted by (model, device, options): the one
// snapshot every listing reads. The copies carry no answers.
func (s *Server) registry() []registered {
	s.planMu.Lock()
	out := make([]registered, 0, len(s.plans))
	for _, r := range s.plans {
		out = append(out, registered{plan: r.plan, batcher: r.batcher})
	}
	s.planMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].plan, out[j].plan
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.Opts < b.Opts
	})
	return out
}

// Plans returns the registered batch-specialization plans, sorted by
// (model, device, options) — e.g. for persisting them at shutdown.
func (s *Server) Plans() []*plan.Plan {
	reg := s.registry()
	out := make([]*plan.Plan, len(reg))
	for i, r := range reg {
		out[i] = r.plan
	}
	return out
}

// planFor returns the record registered under a request key's (model,
// device, options), or nil.
func (s *Server) planFor(key Key) *registered {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	return s.plans[planKey{key.Model, key.Device, key.Opts}]
}

// recordRoute counts one plan-served answer in the /stats counters.
// Only routed (non-exact) answers feed the penalty aggregates: an exact
// hit's penalty is 1.0 by construction, so folding exact traffic into
// PenaltySum would drag the mean toward 1 and hide how costly the
// actual routing is. LastPenalty still tracks every answer.
func (s *Server) recordRoute(penalty float64, exact bool) {
	s.planMu.Lock()
	if exact {
		s.planExact++
	} else {
		s.planRouted++
		s.penaltySum += penalty
		if penalty > s.maxPenalty {
			s.maxPenalty = penalty
		}
	}
	s.lastPenalty = penalty
	s.planMu.Unlock()
}

// Cache returns the server's schedule cache.
func (s *Server) Cache() *ScheduleCache { return s.cache }

// MeasureCache returns the server's structural measurement cache (its own
// unless Config named one).
func (s *Server) MeasureCache() *measure.Cache { return s.measure }

// BlockCache returns the server's whole-block schedule cache (its own
// unless Config named one).
func (s *Server) BlockCache() *blockcache.Cache { return s.blocks }

// newProfiler builds a profiler for a device with the server's measurement
// cache attached, so every request's simulator work feeds and draws from
// one table.
func (s *Server) newProfiler(spec gpusim.Spec) *profile.Profiler {
	p := profile.New(spec)
	p.SetMeasureCache(s.measure)
	return p
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// OptimizeRequest is the body of POST /optimize. Exactly one of Model and
// Graph must be set: Model names a zoo network (see GET /models for the
// accepted names) built at Batch, while Graph carries a full computation
// graph in the internal/graph JSON schema (whose input shapes fix the
// batch). Device overrides the server default; the search runs under the
// server's Config.Options.
type OptimizeRequest struct {
	Model  string          `json:"model,omitempty"`
	Graph  json.RawMessage `json:"graph,omitempty"`
	Batch  int             `json:"batch,omitempty"`
	Device string          `json:"device,omitempty"`
}

// SearchInfo reports the search cost of the optimization that produced a
// response (zeroed identically for every requester that was served from
// cache — the search ran once).
type SearchInfo struct {
	Blocks       int     `json:"blocks"`
	States       int     `json:"states"`
	Transitions  int     `json:"transitions"`
	Measurements int     `json:"measurements"`
	WallMS       float64 `json:"wall_ms"`
}

// PlanRoute reports how a request was served from a registered
// batch-specialization plan: the planned batch whose specialized schedule
// answered it, whether the requested batch was planned exactly, and the
// recorded reuse penalty (1 for an exact hit; for nearest-batch routing,
// the plan's matrix-derived estimate of reused-schedule latency over
// specialized latency at the requested batch).
type PlanRoute struct {
	PlannedBatch int     `json:"planned_batch"`
	Exact        bool    `json:"exact"`
	Penalty      float64 `json:"penalty"`
}

// OptimizeResponse is the body of a successful POST /optimize.
type OptimizeResponse struct {
	Model        string           `json:"model"`
	Device       string           `json:"device"`
	Batch        int              `json:"batch"`
	Options      string           `json:"options"`
	Cached       bool             `json:"cached"`
	LatencyMS    float64          `json:"latency_ms"`
	SequentialMS float64          `json:"sequential_ms"`
	Speedup      float64          `json:"speedup"`
	Throughput   float64          `json:"throughput"`
	Summary      schedule.Summary `json:"summary"`
	Schedule     json.RawMessage  `json:"schedule"`
	Search       SearchInfo       `json:"search"`
	// Plan is set when the request was served from a registered
	// batch-specialization plan instead of the schedule cache.
	Plan *PlanRoute `json:"plan,omitempty"`
}

// MeasureRequest is the body of POST /measure. The graph is named or
// submitted exactly as in OptimizeRequest. Schedule, when set, is a
// schedule JSON (as emitted by /optimize or cmd/iosopt) to measure
// against the graph; otherwise Baseline selects what to measure: "ios"
// (default — optimize through the cache), "sequential", or "greedy".
type MeasureRequest struct {
	Model    string          `json:"model,omitempty"`
	Graph    json.RawMessage `json:"graph,omitempty"`
	Batch    int             `json:"batch,omitempty"`
	Device   string          `json:"device,omitempty"`
	Schedule json.RawMessage `json:"schedule,omitempty"`
	Baseline string          `json:"baseline,omitempty"`
}

// MeasureResponse is the body of a successful POST /measure.
type MeasureResponse struct {
	Model      string           `json:"model"`
	Device     string           `json:"device"`
	Batch      int              `json:"batch"`
	Source     string           `json:"source"` // "schedule", "ios", "sequential", "greedy"
	Cached     bool             `json:"cached"`
	LatencyMS  float64          `json:"latency_ms"`
	Throughput float64          `json:"throughput"`
	Summary    schedule.Summary `json:"summary"`
}

// ModelInfo is one GET /models row.
type ModelInfo struct {
	Name    string   `json:"name"`
	Display string   `json:"display"`
	Aliases []string `json:"aliases,omitempty"`
	Ops     int      `json:"ops"`
	Width   int      `json:"width"`
}

// PlanStats counts batch-plan routing traffic for GET /stats.
type PlanStats struct {
	// Plans is the number of registered batch-specialization plans.
	Plans int `json:"plans"`
	// Exact counts requests served at an exactly planned batch size;
	// Routed counts requests at unplanned batches served by the nearest
	// specialized schedule.
	Exact  int64 `json:"exact"`
	Routed int64 `json:"routed"`
	// LastPenalty is the most recent plan-served answer's recorded reuse
	// penalty (1.0 for an exact hit). PenaltySum and MaxPenalty cover
	// ROUTED answers only — exact hits are 1.0 by construction and would
	// skew the aggregate toward 1 — so the mean routed penalty is
	// PenaltySum / Routed and MaxPenalty is the worst routing so far.
	LastPenalty float64 `json:"last_penalty"`
	PenaltySum  float64 `json:"penalty_sum"`
	MaxPenalty  float64 `json:"max_penalty"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Device   string           `json:"device"`
	Options  string           `json:"options"`
	UptimeS  float64          `json:"uptime_s"`
	Requests map[string]int64 `json:"requests"`
	Cache    CacheStats       `json:"cache"`
	// MeasureCache reports the structural measurement cache: simulator
	// invocations deduplicated across every request in the process.
	MeasureCache measure.Stats `json:"measure_cache"`
	// BlockCache reports the whole-block schedule cache: block DP
	// searches deduplicated by structural fingerprint across every
	// optimization in the process.
	BlockCache blockcache.Stats `json:"block_cache"`
	// Plan reports batch-specialization routing: how many requests were
	// served from registered plans and at what recorded penalty.
	Plan PlanStats `json:"plan"`
	// Batch reports the auto-batching front end (POST /infer): per-plan
	// queue depth, dispatch histogram, SLO violations, and the sweep
	// batches the observed traffic suggests for a plan rebuild.
	Batch BatchStats `json:"batch"`
}

// PlanInfo is one GET /plans row: a registered plan's identity plus its
// measured cross-batch matrices (latency in milliseconds; penalty =
// row-schedule-at-column-batch over the column's specialized schedule).
type PlanInfo struct {
	Model     string      `json:"model"`
	Device    string      `json:"device"`
	Options   string      `json:"options"`
	Batches   []int       `json:"batches"`
	LatencyMS [][]float64 `json:"latency_ms"`
	Penalty   [][]float64 `json:"penalty"`
}

// request resolution ---------------------------------------------------

// resolved carries everything the handlers need about one request target.
type resolved struct {
	key   Key
	spec  gpusim.Spec
	batch int
	// What the graph is made from (see graph): a zoo builder, or a
	// submission's bytes (the request body's; see route) together with
	// their parse if this request is the one that parsed them.
	zoo    models.Builder
	raw    []byte
	parsed *graph.Graph
}

// submission is what a graph submission's bytes resolved to: all a later
// submission of the same bytes needs to key the schedule cache.
type submission struct {
	fp    string
	batch int
}

// submissionCap is the capacity of the submission table's core: clients
// choose the bytes, so an adversarial one could otherwise grow it without
// limit. Past it the core sheds arbitrary submissions, as a plan's answers
// do; a shed submission is merely parsed again when next sent.
const submissionCap = 4096

// resolve validates the model/graph/device fields shared by /optimize,
// /measure and /infer and produces the cache key, under the server's options.
func (s *Server) resolve(model string, rawGraph []byte, batch int, device string) (*resolved, error) {
	if (model == "") == (len(rawGraph) == 0) {
		return nil, fmt.Errorf("pass exactly one of \"model\" and \"graph\"")
	}
	spec := s.cfg.Device
	if device != "" {
		var ok bool
		if spec, ok = gpusim.SpecByName(device); !ok {
			return nil, fmt.Errorf("unknown device %q", device)
		}
	}

	res := &resolved{spec: spec}
	if model != "" {
		entry, ok := models.EntryByName(model)
		if !ok {
			return nil, fmt.Errorf("unknown model %q (GET /models lists the zoo)", model)
		}
		if batch == 0 {
			batch = 1
		}
		if batch < 1 {
			return nil, fmt.Errorf("batch must be >= 1, got %d", batch)
		}
		res.batch = batch
		res.key = Key{Model: entry.Name, Batch: batch, Device: spec.Name, Opts: s.optsFP}
		res.zoo = entry.Build
		return res, nil
	}

	// Bytes that resolved before resolve the same way again, without a
	// parse, and concurrent first submissions of the same bytes parse them
	// once. Only bytes that resolved are recorded, so a bad graph is
	// parsed, and refused, every time it comes. A parse is bounded by the
	// body cap, so waiting on another request's needs no cancellation.
	sum := sha256.Sum256(rawGraph)
	res.raw = rawGraph
	sub, _, err := getOrCompute(context.Background(), s.submissions, sum[:], func(context.Context) (submission, error) {
		g, err := graph.FromJSON(rawGraph)
		if err != nil {
			return submission{}, err
		}
		// Surface block-partition errors here, where they map to a 400: past
		// this point optimizer failures are reported as server errors.
		if _, err := g.Partition(s.cfg.Options.MaxBlockOps); err != nil {
			return submission{}, err
		}
		fp, err := g.Fingerprint()
		if err != nil {
			return submission{}, err
		}
		res.parsed = g
		return submission{fp: fp, batch: g.Batch()}, nil
	})
	if err != nil {
		return nil, err
	}
	res.batch = sub.batch
	if batch != 0 && batch != res.batch {
		return nil, fmt.Errorf("batch %d conflicts with the submitted graph's input batch %d (the graph's shapes win; omit \"batch\")", batch, res.batch)
	}
	res.key = Key{Model: "graph:" + sub.fp, Batch: res.batch, Device: spec.Name, Opts: s.optsFP}
	return res, nil
}

// graph returns the request's graph: a zoo build, or the submission
// parsed. Every search and every /measure that measures builds its graph
// here; no answer keeps one.
func (res *resolved) graph() (*graph.Graph, error) {
	switch {
	case res.zoo != nil:
		return res.zoo(res.batch), nil
	case res.parsed != nil:
		return res.parsed, nil
	default:
		return graph.FromJSON(res.raw)
	}
}

// entry answers a resolved request from the schedule cache, searching on a
// miss under the request's own context: when the request goes away its
// search stops, nothing is cached, and a request still waiting on the key
// searches in its place.
func (s *Server) entry(ctx context.Context, res *resolved) (*Entry, bool, error) {
	return s.cache.GetOrCompute(ctx, res.key, func(ctx context.Context) (*Entry, error) {
		g, err := res.graph()
		if err != nil {
			return nil, err
		}
		prof := s.newProfiler(res.spec)
		out, err := core.OptimizeContext(ctx, g, prof, s.cfg.Options.WithBlockCache(s.blocks))
		if err != nil {
			return nil, err
		}
		lat, err := prof.MeasureSchedule(out.Schedule)
		if err != nil {
			return nil, err
		}
		return newEntry(res.key, prof, g, out.Schedule, lat, out.Stats, nil)
	})
}

// paperModels are the paper's four benchmark networks, what Warm and
// WarmPlans precompute when given no names.
var paperModels = []string{"inception", "randwire", "nasnet", "squeezenet"}

// Warm precomputes schedules for the named zoo models (nil = the paper's
// four benchmarks) at the given batch sizes (nil = batch 1) on the
// server's default device, so the first user request hits a warm cache.
// Cancelling ctx aborts the remaining precomputations (e.g. on SIGINT
// during daemon start-up).
func (s *Server) Warm(ctx context.Context, names []string, batches []int) error {
	if names == nil {
		names = paperModels
	}
	if len(batches) == 0 {
		batches = []int{1}
	}
	for _, name := range names {
		for _, b := range batches {
			res, err := s.resolve(name, nil, b, "")
			if err != nil {
				return fmt.Errorf("serve: warm %s: %w", name, err)
			}
			if _, _, err := s.entry(ctx, res); err != nil {
				return fmt.Errorf("serve: warm %s/b%d: %w", name, b, err)
			}
			s.logf("warm %s", res.key)
		}
	}
	return nil
}

// WarmPlans builds and registers a batch-specialization plan for each
// named zoo model (nil = the paper's four benchmarks) over the given
// batch sizes, on the server's default device and options: one
// specialized search per batch, in order, each with the options' Workers
// setting, plus the measured cross-batch penalty matrix, all feeding the
// server's shared structural measurement cache.
// Subsequent /optimize requests for these models are answered from the
// plan: exactly planned batches with their specialized schedule,
// unplanned batches by nearest-batch routing with a recorded penalty.
// Cancelling ctx aborts the remaining sweeps.
func (s *Server) WarmPlans(ctx context.Context, names []string, batches []int) error {
	if names == nil {
		names = paperModels
	}
	if len(batches) == 0 {
		return fmt.Errorf("serve: WarmPlans needs at least one batch size")
	}
	for _, name := range names {
		entry, ok := models.EntryByName(name)
		if !ok {
			return fmt.Errorf("serve: warm plan: unknown model %q (GET /models lists the zoo)", name)
		}
		p, err := plan.Build(ctx, plan.BuildConfig{
			Graph:       entry.Build(1),
			Batches:     batches,
			Device:      s.cfg.Device.Name,
			Opts:        s.cfg.Options.WithBlockCache(s.blocks),
			NewProfiler: func() *profile.Profiler { return s.newProfiler(s.cfg.Device) },
		})
		if err != nil {
			return fmt.Errorf("serve: warm plan %s: %w", entry.Name, err)
		}
		// Key the plan by the canonical zoo name so request resolution
		// (which canonicalizes model names) finds it.
		p.Model = entry.Name
		if err := s.RegisterPlan(p); err != nil {
			return err
		}
		s.logf("plan %s/%s/%s batches=%v", p.Model, p.Device, p.Opts, p.Batches())
	}
	return nil
}

// handlers --------------------------------------------------------------

func (s *Server) handleOptimize(ctx context.Context, req *optimizeWire) (answer, error) {
	res, err := s.resolve(req.Model, req.Graph, req.Batch, req.Device)
	if err != nil {
		return answer{}, badRequest(err)
	}
	if rec := s.planFor(res.key); rec != nil {
		return s.servePlanned(ctx, res, rec)
	}
	e, cached, err := s.entry(ctx, res)
	if err != nil {
		return answer{}, err
	}
	if s.cfg.Logf != nil {
		s.logf("optimize %s cached=%v %.3fms", res.key, cached, 1e3*e.Latency)
	}
	if !cached { // the one requester whose search produced the entry
		return answer{body: e.uncached()}, nil
	}
	return answer{body: e.body}, nil
}

// servePlanned answers an /optimize request from a registered
// batch-specialization plan: an exactly planned batch is served with its
// specialized schedule and stored latency; an unplanned batch is routed
// to the nearest planned batch, whose schedule is transferred onto the
// requested batch's graph and measured (warm structural-measurement-cache
// work — the optimizer never runs). The plan's record keeps each batch's
// rendered answer, so repeat requests pay no measurement or marshaling
// at all. Either way the routing is recorded in the /stats plan counters
// with its penalty.
func (s *Server) servePlanned(ctx context.Context, res *resolved, rec *registered) (answer, error) {
	if err := ctx.Err(); err != nil {
		return answer{}, err
	}
	e, err := s.plannedEntry(ctx, res.spec, rec, res.batch)
	if err != nil {
		return answer{}, err
	}
	s.recordRoute(e.route.Penalty, e.route.Exact)
	if s.cfg.Logf != nil {
		s.logf("optimize %s plan batch=%d->%d exact=%v penalty=%.3f %.3fms",
			res.key, res.batch, e.route.PlannedBatch, e.route.Exact, e.route.Penalty, 1e3*e.Latency)
	}
	return answer{body: e.body}, nil
}

// plannedEntry returns a plan's answer for a requested batch, computing it
// once, on the first request, while concurrent first requests wait for it:
// route the batch, transfer the routed schedule to it (exact hits reuse
// the plan point verbatim), measure it and the sequential baseline, and
// render the whole answer.
// The requested batch's graph comes from the plan point itself
// (pt.Graph.WithBatch), so the entry works for any registered plan —
// including ones loaded from disk — without zoo resolution.
func (s *Server) plannedEntry(ctx context.Context, spec gpusim.Spec, rec *registered, batch int) (*Entry, error) {
	var buf [binary.MaxVarintLen64]byte
	e, _, err := getOrCompute(ctx, rec.answers, binary.AppendVarint(buf[:0], int64(batch)), func(context.Context) (*Entry, error) {
		p := rec.plan
		pt, penalty, exact := p.Route(batch)
		g, sched, lat := pt.Graph, pt.Schedule, pt.Latency
		prof := s.newProfiler(spec) // lowers g once for both measurements
		if !exact {
			var err error
			if g, err = pt.Graph.WithBatch(batch); err != nil {
				return nil, err
			}
			if sched, err = pt.Schedule.Transfer(g); err != nil {
				return nil, fmt.Errorf("plan: route batch %d to planned batch %d: %w", batch, pt.Batch, err)
			}
			if lat, err = prof.MeasureSchedule(sched); err != nil {
				return nil, err
			}
		}
		// No search ran (the plan precomputed it): cached, at zero search cost.
		return newEntry(Key{Model: p.Model, Batch: batch, Device: spec.Name, Opts: p.Opts}, prof, g, sched, lat,
			core.Stats{}, &PlanRoute{PlannedBatch: pt.Batch, Exact: exact, Penalty: penalty})
	})
	return e, err
}

// measured is what a /measure answer quotes: latency (seconds) and summary.
type measured struct {
	lat     float64
	summary schedule.Summary
}

// handleMeasure answers from the key's entry where it can: the schedule
// bytes /optimize returned and ios quote it, and each baseline is measured
// once per entry. A planned key's entry is its plan's answer, computed
// first as /optimize would; any other key's is the schedule cache's
// completed one, if any (Lookup moves no counter). Anything else is parsed
// or built, and measured.
func (s *Server) handleMeasure(ctx context.Context, req *measureWire) (answer, error) {
	res, err := s.resolve(req.Model, req.Graph, req.Batch, req.Device)
	if err != nil {
		return answer{}, badRequest(err)
	}
	rec := s.planFor(res.key)
	e, _ := s.cache.Lookup(res.key)
	if rec != nil {
		if e, err = s.plannedEntry(ctx, res.spec, rec, res.batch); err != nil {
			return answer{}, err
		}
	}

	var (
		sched  *schedule.Schedule // measured below, if set
		slot   *atomic.Pointer[measured]
		m      *measured
		source = req.Baseline
		cached bool
	)
	switch {
	case len(req.Schedule) > 0:
		if req.Baseline != "" {
			return answer{}, badRequest(fmt.Errorf("pass at most one of \"schedule\" and \"baseline\""))
		}
		source = "schedule"
		if e != nil && bytes.Equal(req.Schedule, e.schedule()) {
			m = &measured{e.Latency, e.summary}
			break
		}
		g, err := res.graph()
		if err == nil {
			sched, err = schedule.FromJSON(req.Schedule, g)
		}
		if err == nil {
			err = sched.Validate()
		}
		if err != nil {
			return answer{}, badRequest(err)
		}
	case req.Baseline == "" || req.Baseline == "ios":
		source, cached = "ios", rec != nil
		if rec == nil {
			if e, cached, err = s.entry(ctx, res); err != nil {
				return answer{}, err
			}
		}
		// The entry already carries this schedule's measured latency and
		// summary; answer from it instead of re-simulating the whole network.
		m = &measured{e.Latency, e.summary}
	case req.Baseline == "sequential" || req.Baseline == "greedy":
		build := baseline.Sequential
		if req.Baseline == "greedy" {
			build = baseline.Greedy
		}
		if e != nil {
			if slot = &e.sequential; req.Baseline == "greedy" {
				slot = &e.greedy
			}
			if m = slot.Load(); m != nil {
				break
			}
		}
		g, err := res.graph()
		if err != nil {
			return answer{}, badRequest(err)
		}
		if sched, err = build(g); err != nil {
			return answer{}, err
		}
	default:
		return answer{}, badRequest(fmt.Errorf("unknown baseline %q (want ios, sequential, or greedy)", req.Baseline))
	}

	if sched != nil {
		lat, err := s.newProfiler(res.spec).MeasureSchedule(sched)
		if err != nil {
			return answer{}, err
		}
		m = &measured{lat, sched.Summarize()}
		// Concurrent first users may each measure; one result is published.
		if slot != nil {
			slot.CompareAndSwap(nil, m)
			m = slot.Load()
		}
	}
	if s.cfg.Logf != nil {
		s.logf("measure %s source=%s %.3fms", res.key, source, 1e3*m.lat)
	}
	return answer{v: MeasureResponse{
		Model:      res.key.Model,
		Device:     res.spec.Name,
		Batch:      res.batch,
		Source:     source,
		Cached:     cached,
		LatencyMS:  1e3 * m.lat,
		Throughput: ratio(float64(res.batch), m.lat),
		Summary:    m.summary,
	}}, nil
}

// zooAnswer is the rendered GET /models answer. The zoo is static, so it is
// built and rendered once per process, whichever server asks first.
var zooAnswer = sync.OnceValues(func() ([]byte, error) {
	var infos []ModelInfo
	for _, e := range models.Zoo() {
		g := e.Build(1)
		infos = append(infos, ModelInfo{
			Name:    e.Name,
			Display: e.Display,
			Aliases: e.Aliases,
			Ops:     len(g.SchedulableNodes()),
			Width:   g.Width(),
		})
	}
	return render(infos)
})

func (s *Server) handleModels(*http.Request) (answer, error) {
	body, err := zooAnswer()
	return answer{body: body}, err
}

func (s *Server) handleStats(*http.Request) (answer, error) {
	s.planMu.Lock()
	planStats := PlanStats{
		Plans:       len(s.plans),
		Exact:       s.planExact,
		Routed:      s.planRouted,
		LastPenalty: s.lastPenalty,
		PenaltySum:  s.penaltySum,
		MaxPenalty:  s.maxPenalty,
	}
	s.planMu.Unlock()
	requests := make(map[string]int64, len(s.requests))
	for name, n := range s.requests {
		requests[name] = n.Load()
	}
	return answer{v: StatsResponse{
		Device:       s.cfg.Device.Name,
		Options:      s.optsFP,
		UptimeS:      time.Since(s.start).Seconds(),
		Requests:     requests,
		Cache:        s.cache.Stats(),
		MeasureCache: s.measure.Stats(),
		BlockCache:   s.blocks.Stats(),
		Plan:         planStats,
		Batch:        s.batchStats(),
	}}, nil
}

func (s *Server) handlePlans(*http.Request) (answer, error) {
	plans := s.Plans()
	infos := make([]PlanInfo, 0, len(plans))
	for _, p := range plans {
		info := PlanInfo{Model: p.Model, Device: p.Device, Options: p.Opts, Batches: p.Batches()}
		info.LatencyMS, info.Penalty = p.Matrices()
		infos = append(infos, info)
	}
	return answer{v: infos}, nil
}

// handlePlanGet serves the plan registry: GET /plans/<model>/<device>/<opts>
// streams the registered plan in its persisted JSON form (plan.Load reads
// it back losslessly), so stateless frontends and joining cluster nodes
// pull specialized batch plans instead of rebuilding them. Each path
// segment is URL-escaped by the client — device names carry spaces and
// options fingerprints carry slashes — so the split runs over the escaped
// path before unescaping the parts.
func (s *Server) handlePlanGet(r *http.Request) (answer, error) {
	rest := strings.TrimPrefix(r.URL.EscapedPath(), "/plans/")
	segs := strings.SplitN(rest, "/", 3)
	if len(segs) != 3 || segs[0] == "" || segs[1] == "" || segs[2] == "" {
		return answer{}, badRequest(fmt.Errorf("use GET /plans/<model>/<device>/<options> (each segment URL-escaped)"))
	}
	parts := make([]string, 3)
	for i, seg := range segs {
		p, err := url.PathUnescape(seg)
		if err != nil {
			return answer{}, badRequest(fmt.Errorf("bad path segment %q: %v", seg, err))
		}
		parts[i] = p
	}
	p := s.LookupPlan(parts[0], parts[1], parts[2])
	if p == nil {
		return answer{}, &statusError{http.StatusNotFound, fmt.Errorf("no plan for model %q device %q options %q", parts[0], parts[1], parts[2])}
	}
	return answer{stream: p.Save}, nil
}

// LookupPlan returns the registered plan for exactly (model, device,
// options fingerprint), or nil — the programmatic face of the plan
// registry endpoint.
func (s *Server) LookupPlan(model, device, opts string) *plan.Plan {
	if rec := s.planFor(Key{Model: model, Device: device, Opts: opts}); rec != nil {
		return rec.plan
	}
	return nil
}

// HealthzResponse is the GET /healthz body.
type HealthzResponse struct {
	// Status is "ready" (HTTP 200) once start-up work — persisted cache
	// loads, warm precompute, plan sweeps — is done, else "starting"
	// (HTTP 503). See SetReady.
	Status string `json:"status"`
	// UptimeS is seconds since the server was constructed.
	UptimeS float64 `json:"uptime_s"`
}

// handleHealthz is the readiness probe: 200 {"status":"ready"} once
// start-up work is done, 503 {"status":"starting"} before. The cluster
// harness polls it for membership; load balancers should too.
func (s *Server) handleHealthz(*http.Request) (answer, error) {
	resp, code := HealthzResponse{Status: "ready", UptimeS: time.Since(s.start).Seconds()}, 0
	if !s.ready.Load() {
		resp.Status, code = "starting", http.StatusServiceUnavailable
	}
	return answer{code: code, v: resp}, nil
}

// the request pipeline ---------------------------------------------------

// A route is one row of the route table. Its handler answers a request
// under the request's context (bounded by Config.Deadline); body is the
// request body when the route reads one, else nil. The body is a pooled
// buffer (see bodies) that a later request reuses once the handler
// returns, and a request's raw fields alias it (see rawField), so no
// handler keeps body bytes past its return: nothing it stores, and neither
// the answer nor the error it returns, may reference them. A search the
// request starts is no exception: ScheduleCache.GetOrCompute runs compute
// inline under the request's context, and a waiter that takes a search
// over runs its own compute on its own body, so res.raw is parsed before
// the handler returns.
type route struct {
	method, path string
	reads        bool
	handle       func(ctx context.Context, r *http.Request, body []byte) (answer, error)
}

// rawField is a raw JSON request field decoded without a copy: unlike
// json.RawMessage, it references the body it was decoded from, which is
// reused once the handler returns (see route).
type rawField []byte

func (f *rawField) UnmarshalJSON(b []byte) error {
	*f = b
	return nil
}

// optimizeWire and measureWire are what /optimize and /measure bodies
// decode into: the exported request with its raw fields shadowed by
// rawFields (the embedded ones stay nil).
type optimizeWire struct {
	OptimizeRequest
	Graph rawField `json:"graph"`
}

type measureWire struct {
	MeasureRequest
	Graph    rawField `json:"graph"`
	Schedule rawField `json:"schedule"`
}

// postRoute is a route whose handler takes the JSON body decoded into a fresh T.
func postRoute[T any](path string, h func(context.Context, *T) (answer, error)) route {
	return route{http.MethodPost, path, true, func(ctx context.Context, _ *http.Request, body []byte) (answer, error) {
		req := new(T)
		if err := json.Unmarshal(body, req); err != nil {
			return answer{}, badRequest(fmt.Errorf("parse body: %w", err))
		}
		return h(ctx, req)
	}}
}

// getRoute is a route whose handler reads the request line only.
func getRoute(path string, h func(*http.Request) (answer, error)) route {
	return route{http.MethodGet, path, false, func(_ context.Context, r *http.Request, _ []byte) (answer, error) { return h(r) }}
}

// answer is what a handler returns: a body rendered before, a value
// rendered once now, or a stream written straight to the connection (the
// persisted plan), with its status (0 is 200).
type answer struct {
	code   int
	body   []byte
	v      any
	stream func(io.Writer) error
}

// statusError is a failure that knows its status: the client's fault
// (400, 404, 405, 413), or a response that could not be encoded (500).
// Any other error a handler returns is a 503 if the request was cancelled
// or ran out of time, else a 500.
type statusError struct {
	code int
	error
}

func badRequest(err error) error { return &statusError{http.StatusBadRequest, err} }

// serve is the request pipeline every route runs: it checks the method,
// applies the deadline, reads the body, calls the handler, maps a failure
// to its status and writes the answer.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, rt route) {
	ctx := r.Context()
	if s.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}
	a, err := s.call(ctx, w, r, rt)
	if err == nil && a.v != nil {
		if a.body, err = render(a.v); err != nil {
			err = &statusError{http.StatusInternalServerError, fmt.Errorf("encode response: %w", err)}
		}
	}
	if err != nil {
		a = s.failure(ctx, err)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if a.stream != nil {
		err = a.stream(w)
	} else {
		h.Set("Content-Length", strconv.Itoa(len(a.body)))
		if a.code == 0 {
			a.code = http.StatusOK
		}
		w.WriteHeader(a.code)
		_, err = w.Write(a.body)
	}
	if err != nil {
		s.logf("write response: %v", err)
	}
}

// bodies pools the buffers request bodies are read into, so a warm request
// reuses one an answered request put back. A buffer grown past
// maxPresizeBytes + bytes.MinRead is dropped instead: one 16 MB body must
// not stay resident.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// call runs a route's handler once the method checks out and the body, on
// a route that reads one, has arrived within maxBodyBytes.
func (s *Server) call(ctx context.Context, w http.ResponseWriter, r *http.Request, rt route) (answer, error) {
	if r.Method != rt.method {
		return answer{}, &statusError{http.StatusMethodNotAllowed, fmt.Errorf("use %s", rt.method)}
	}
	if !rt.reads {
		return rt.handle(ctx, r, nil)
	}
	body := bodies.Get().(*bytes.Buffer)
	defer func() {
		if body.Cap() <= maxPresizeBytes+bytes.MinRead {
			body.Reset()
			bodies.Put(body)
		}
	}()
	// Grown from Content-Length (plus the bytes.MinRead of slack ReadFrom
	// wants to see EOF without growing), but only up to maxPresizeBytes: the
	// header is the client's word, and memory is spent on bytes that arrive.
	if n := r.ContentLength; n > 0 {
		body.Grow(int(min(n, maxPresizeBytes)) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return answer{}, &statusError{http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return answer{}, badRequest(fmt.Errorf("read body: %w", err))
	}
	return rt.handle(ctx, r, body.Bytes())
}

// failure is the answer to a failed request, {"error": ...} with the
// error's status. A cancellation or deadline expiry — whether surfaced
// through the search or through the request context itself — is a 503
// (the request was shed, not wrong) and is counted in /stats.
func (s *Server) failure(ctx context.Context, err error) answer {
	code := http.StatusInternalServerError
	var se *statusError
	switch {
	case errors.As(err, &se):
		code = se.code
	case isCancelErr(err) || ctx.Err() != nil:
		code = http.StatusServiceUnavailable
		s.requests["cancelled"].Add(1)
		// Prefer the request context's own error: a deadline expiry reads
		// better as "deadline exceeded" than as the search's generic
		// cancellation.
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("request cancelled: %w", cerr)
		}
	}
	s.logf("error %d: %v", code, err)
	body, _ := render(map[string]string{"error": err.Error()})
	return answer{code: code, body: body}
}

// isCancelErr reports whether an error chain ends in a context
// cancellation or deadline expiry.
func isCancelErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ratio divides, reporting 0 for a zero denominator: degenerate graphs
// (e.g. input-only) measure a latency of 0, and NaN/Inf are not
// JSON-encodable.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// render encodes one response body: compact JSON and a newline.
func render(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	return append(body, '\n'), err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// newEntry is the one way an answer is made, from a search's outputs or a
// plan point's: it measures the sequential baseline of g on prof, which has
// lowered g already, and renders the /optimize body for sched under key —
// "cached":true, with route for a plan's answer. What it returns holds no
// schedule and no graph.
func newEntry(key Key, prof *profile.Profiler, g *graph.Graph, sched *schedule.Schedule, lat float64, stats core.Stats, route *PlanRoute) (*Entry, error) {
	seq, err := baseline.Sequential(g)
	if err != nil {
		return nil, err
	}
	seqLat, err := prof.MeasureSchedule(seq)
	if err != nil {
		return nil, err
	}
	schedJSON, err := sched.MarshalJSON()
	if err != nil {
		return nil, err
	}
	e := &Entry{Key: key, Stats: stats, Latency: lat, SequentialLatency: seqLat, summary: sched.Summarize(), route: route}
	e.sequential.Store(&measured{seqLat, seq.Summarize()})
	if e.body, err = render(OptimizeResponse{
		Model:        key.Model,
		Device:       key.Device,
		Batch:        key.Batch,
		Options:      key.Opts,
		Cached:       true,
		LatencyMS:    1e3 * lat,
		SequentialMS: 1e3 * seqLat,
		Speedup:      ratio(seqLat, lat),
		Throughput:   ratio(float64(key.Batch), lat),
		Summary:      e.summary,
		Schedule:     schedJSON,
		Search: SearchInfo{
			Blocks:       stats.Blocks,
			States:       stats.States,
			Transitions:  stats.Transitions,
			Measurements: stats.Measurements,
			WallMS:       float64(stats.WallTime) / float64(time.Millisecond),
		},
		Plan: route,
	}); err != nil {
		return nil, err
	}
	return e, nil
}

// uncached is the answer for the one requester whose search made e: its
// body saying "cached":false. No string before the flag can hold its key
// (strings escape quotes).
func (e *Entry) uncached() []byte {
	i := bytes.Index(e.body, []byte(`,"cached":true`))
	b := append(make([]byte, 0, len(e.body)+1), e.body[:i]...)
	return append(append(b, `,"cached":false`...), e.body[i+len(`,"cached":true`):]...)
}

// schedule returns the compact schedule JSON inside the body: no earlier
// field holds the key (strings escape quotes), and only "search" and a
// plan's route follow.
func (e *Entry) schedule() []byte {
	start := bytes.Index(e.body, []byte(`,"schedule":`)) + len(`,"schedule":`)
	return e.body[start:bytes.LastIndex(e.body, []byte(`,"search":{`))]
}
