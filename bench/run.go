package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ios"
	"ios/internal/blockcache"
	"ios/internal/cluster"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/serve"
)

// clock is the run's reference timeline: every tick is one execution of the
// frozen kernel, and a sample is rescaled by the median of the ticks that
// enclose it — the boundary before the phase and the boundary after. One tick
// alone is ±10 % even on a quiet host, so phases that last seconds get three
// ticks a boundary; phases of tens of milliseconds get one, because there the
// host drifts faster than more ticks could average and nearness matters more
// (README, "Noise").
type clock struct {
	ticks []float64 // seconds
}

func (c *clock) tick(n int) {
	for i := 0; i < n; i++ {
		d, _ := refTick()
		c.ticks = append(c.ticks, d.Seconds())
	}
}

// boundary separates two phases: a full collection, so the next phase starts
// from the same heap state in every round instead of inheriting whatever
// garbage and half-finished GC cycle the previous one left, then n ticks.
// Without the collection, identical serve_warm restarts differed by 26 %.
func (c *clock) boundary(n int) {
	runtime.GC()
	c.tick(n)
}

// mark is taken where a sample starts: the ticks before that index came
// before the sample, the ticks from it on came after.
func (c *clock) mark() int { return len(c.ticks) }

// scale converts raw seconds measured at mark into normalised seconds, using
// the n ticks on each side of the sample.
func (c *clock) scale(mark, n int) float64 {
	lo, hi := mark-n, mark+n
	if lo < 0 {
		lo = 0
	}
	if hi > len(c.ticks) {
		hi = len(c.ticks)
	}
	if lo >= hi {
		return 1
	}
	return refNominal.Seconds() / median(c.ticks[lo:hi])
}

// timed is a raw duration and where on the reference timeline it was taken.
type timed struct {
	raw  float64 // seconds
	mark int
}

// runConfig is one invocation.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// quick shrinks everything to a smoke test: one setup, one round, short
	// windows, no warm-up. Its numbers mean nothing.
	quick     bool
	tracePath string
	// dumpPath, when set, receives every raw sample and every reference tick
	// as JSON: the input for studying the normalisation offline.
	dumpPath string
	log      io.Writer // human-readable progress and tables
}

// result is what the last line of stdout reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	summaries map[string]summary // distribution behind each timed median
}

// env is what set-up leaves behind for the rounds.
type env struct {
	w     *workload
	gen   *generator
	cold  []request
	seqs  [][]request
	fleet *fleet // topoFleet
	// topoRestart: where the warmed server's caches and plan were saved.
	dir, measureFile, blockFile, planFile string
	// set-up's own exchange cost (topoFleet): the push round that hands the
	// warm keyspace to its owners, and how many remote measurement lookups
	// node0's cold searches wasted on peers that had nothing yet.
	syncTime        time.Duration
	pushed          int
	seedFetchMisses int64
}

func numClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// optimizeOnce asks one node for one key over HTTP and returns the schedule.
func optimizeOnce(ctx context.Context, gen *generator, base string, r request) (json.RawMessage, error) {
	var buf bytes.Buffer
	status, err := gen.do(ctx, base, r, &buf)
	if err != nil {
		return nil, err
	}
	if err := checkResponse(gen.golden, r, status, buf.Bytes()); err != nil {
		return nil, err
	}
	var resp serve.OptimizeResponse
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return nil, err
	}
	return resp.Schedule, nil
}

// setup builds the workload's topology from nothing and warms what the
// scenario needs warm. It is timed as setup_s, so it holds system work only:
// servers, listeners, readiness, the zoo listing, request bodies (graph
// construction and graph JSON), and — for serve_warm and fleet_join — the
// searches, the plan sweep, the saves and the exchange that make the fleet
// warm.
func setup(ctx context.Context, cfg runConfig, gen *generator) (_ *env, err error) {
	w := cfg.w
	e := &env{w: w, gen: gen}
	defer func() {
		if err != nil {
			e.teardown()
		}
	}()

	graphJSON := map[string]json.RawMessage{}
	for _, m := range w.graphs {
		entry, ok := models.EntryByName(m)
		if !ok {
			return nil, fmt.Errorf("unknown model %q", m)
		}
		if graphJSON[m], err = entry.Build(1).MarshalJSON(); err != nil {
			return nil, err
		}
	}
	e.cold = w.coldList(cfg.seed, graphJSON)
	schedules := map[string]json.RawMessage{}
	listModels := request{kind: kindGet, method: http.MethodGet, path: "/models"}
	var buf bytes.Buffer

	// boot starts one bare server and does what a deployment does first:
	// wait for readiness, list the zoo (which builds all eleven graphs once).
	boot := func(srv *serve.Server) (*node, error) {
		n, err := listen(srv)
		if err != nil {
			return nil, err
		}
		if err := waitReady(ctx, gen.hc, n.url); err != nil {
			n.close()
			return nil, err
		}
		if _, err := gen.do(ctx, n.url, listModels, &buf); err != nil {
			n.close()
			return nil, err
		}
		return n, nil
	}

	switch w.topo {
	case topoSingle:
		n, err := boot(newServer())
		if err != nil {
			return nil, err
		}
		n.close()

	case topoRestart:
		srv := newServer()
		n, err := boot(srv)
		if err != nil {
			return nil, err
		}
		defer n.close()
		if err := srv.WarmPlans(ctx, []string{w.planModel}, planBatches); err != nil {
			return nil, err
		}
		for _, r := range e.cold {
			if schedules[r.key.String()], err = optimizeOnce(ctx, gen, n.url, r); err != nil {
				return nil, err
			}
		}
		if e.dir, err = os.MkdirTemp("", "iosbench-"+w.name+"-"); err != nil {
			return nil, err
		}
		e.measureFile = filepath.Join(e.dir, "measure.json")
		e.blockFile = filepath.Join(e.dir, "blocks.json")
		e.planFile = filepath.Join(e.dir, "plan.json")
		if err := srv.MeasureCache().SaveFile(e.measureFile); err != nil {
			return nil, err
		}
		if err := srv.BlockCache().SaveFile(e.blockFile); err != nil {
			return nil, err
		}
		if err := srv.Plans()[0].SaveFile(e.planFile); err != nil {
			return nil, err
		}

	case topoFleet:
		e.fleet = newFleet()
		for i := 0; i < fleetSize; i++ {
			if _, _, err := e.fleet.join(ctx, gen.hc); err != nil {
				return nil, err
			}
		}
		nodes := e.fleet.nodes
		if _, err := gen.do(ctx, nodes[0].url, listModels, &buf); err != nil {
			return nil, err
		}
		if err := nodes[0].srv.WarmPlans(ctx, []string{w.planModel}, planBatches); err != nil {
			return nil, err
		}
		for _, n := range nodes[1:] {
			if _, err := n.cl.PullPlans(ctx); err != nil {
				return nil, err
			}
		}
		// Every search runs on node0 and reaches the other nodes through the
		// exchange. Seeding round-robin would let one node's search fetch
		// measurements another is still producing, and how many it gets
		// depends on the fetch breaker's wall-clock cooldown — the fleet
		// would hold a different number of cache entries every run.
		for _, r := range e.cold {
			if schedules[r.key.String()], err = optimizeOnce(ctx, gen, nodes[0].url, r); err != nil {
				return nil, err
			}
		}
		e.seedFetchMisses = nodes[0].cl.Stats().MeasureFetchMisses
		start := time.Now()
		if e.pushed, err = e.fleet.syncAll(ctx); err != nil {
			return nil, err
		}
		e.syncTime = time.Since(start)
	}

	bag := w.warmMultiset(graphJSON, schedules)
	if cfg.quick {
		shuffle(bag, newRNG(cfg.seed, 0x9b1c))
		bag = bag[:len(bag)/40]
	}
	for c := 0; c < numClients(); c++ {
		e.seqs = append(e.seqs, clientSequence(bag, cfg.seed, c))
	}
	return e, nil
}

func (e *env) teardown() {
	if e.fleet != nil {
		e.fleet.close()
		e.fleet = nil
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
		e.dir = ""
	}
	e.gen.close()
}

// roundOut is everything one round measured.
type roundOut struct {
	cold      timed
	coldAlloc float64 // bytes
	coldCount phaseCount
	bodies    [][]byte // cold answers, kept only when asked for

	warm        timed
	warmP50     float64 // seconds, raw
	warmP99     float64 // seconds, raw
	warmAlloc   float64 // bytes per request
	warmMallocs float64 // objects per request
	warmBytes   int64
	warmCount   phaseCount

	// Counters read from the cold target right after its cold phase.
	blocks   blockcache.Stats
	measures measure.Stats
	search   serve.SearchInfo // summed over the cold answers
	// Counters read from the warm target(s) after the window.
	cache serve.CacheStats

	// topoFleet only.
	joinReady, pullPlans time.Duration
	exchange             cluster.Stats
	peerRequests         int64
	peerBytes            int64
	peerRTT              float64
}

// coldTarget is the node a round's cold phase ran against and how to retire it.
type coldTarget struct {
	n       *node
	targets []string // where the warm window sprays
	retire  func() error
}

// round runs [boundary] cold [boundary] warm once. The boundary that closes
// one round's warm window is the next round's first.
func (e *env) round(ctx context.Context, clk *clock, keepBodies bool) (out roundOut, tgt coldTarget, err error) {
	w, gen := e.w, e.gen
	var ms runtime.MemStats

	// cold: what is timed differs per topology --------------------------------
	var timedCold func() error
	var res coldResult
	solo := func(n *node) { // a target that is simply closed when the round ends
		tgt = coldTarget{n: n, targets: []string{n.url}, retire: func() error { n.close(); return nil }}
	}
	switch w.topo {
	case topoSingle:
		// The server exists before the clock starts, and readiness has opened
		// the keep-alive connection: the cold pass times first answers, not
		// construction or a TCP handshake.
		n, err := listen(newServer())
		if err != nil {
			return out, tgt, err
		}
		solo(n)
		if err := waitReady(ctx, gen.hc, n.url); err != nil {
			return out, tgt, err
		}
		timedCold = func() error {
			res = gen.coldPass(ctx, n.url, e.cold)
			return nil
		}

	case topoRestart:
		// The restart itself is the cold phase: construct, load both caches
		// and the plan, listen, answer.
		timedCold = func() error {
			srv := newServer()
			if _, err := srv.MeasureCache().LoadFile(e.measureFile); err != nil {
				return err
			}
			if _, err := srv.BlockCache().LoadFile(e.blockFile); err != nil {
				return err
			}
			p, err := ios.LoadBatchPlanFile(e.planFile)
			if err != nil {
				return err
			}
			if err := srv.RegisterPlan(p); err != nil {
				return err
			}
			n, err := listen(srv)
			if err != nil {
				return err
			}
			solo(n)
			res = gen.coldPass(ctx, n.url, e.cold)
			return nil
		}

	case topoFleet:
		// Timed from the start of the join: membership, readiness, the plan
		// pull, then the answers, every block and measurement fetched.
		e.fleet.meter.snapshot()
		timedCold = func() error {
			n, ready, err := e.fleet.join(ctx, gen.hc)
			if err != nil {
				return err
			}
			tgt = coldTarget{n: n, retire: e.fleet.leave}
			for _, m := range e.fleet.nodes {
				tgt.targets = append(tgt.targets, m.url)
			}
			out.joinReady = ready
			pullStart := time.Now()
			if _, err := n.cl.PullPlans(ctx); err != nil {
				return err
			}
			out.pullPlans = time.Since(pullStart)
			res = gen.coldPass(ctx, n.url, e.cold)
			return nil
		}
	}
	clk.boundary(w.boundaryTicks)
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	out.cold.mark = clk.mark()
	start := time.Now()
	if err := timedCold(); err != nil {
		return out, tgt, err
	}
	out.cold.raw = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	out.coldAlloc = float64(ms.TotalAlloc - alloc0)
	if w.topo == topoFleet {
		out.exchange = tgt.n.cl.Stats()
		out.peerRequests, out.peerBytes, out.peerRTT = e.fleet.meter.snapshot()
	}

	out.coldCount = gen.verify(e.cold, res)
	out.blocks = tgt.n.srv.BlockCache().Stats()
	out.measures = tgt.n.srv.MeasureCache().Stats()
	if w.topo != topoSingle {
		// A restarted or joining node must answer from what it loaded or
		// fetched: a local DP search here is a wrong result, not a slow one.
		if out.blocks.Misses != 0 {
			out.coldCount.add(fmt.Errorf("%s: %d local block searches on a warm start", w.name, out.blocks.Misses))
		}
		if out.exchange.BlockFetchMisses != 0 {
			out.coldCount.add(fmt.Errorf("%s: %d block fetches found no peer with the entry", w.name, out.exchange.BlockFetchMisses))
		}
	}
	for _, body := range res.bodies {
		var resp serve.OptimizeResponse
		if json.Unmarshal(body, &resp) == nil {
			out.search.Blocks += resp.Search.Blocks
			out.search.States += resp.Search.States
			out.search.Transitions += resp.Search.Transitions
			out.search.Measurements += resp.Search.Measurements
		}
	}
	if keepBodies {
		out.bodies = res.bodies
	}

	// warm ----------------------------------------------------------------
	clk.boundary(w.boundaryTicks)
	runtime.ReadMemStats(&ms)
	warmAlloc0, mallocs0 := ms.TotalAlloc, ms.Mallocs
	out.warm.mark = clk.mark()
	win := gen.warmWindow(ctx, tgt.targets, e.seqs)
	runtime.ReadMemStats(&ms)
	out.warm.raw = win.wall.Seconds()
	out.warmCount = win.count
	out.warmP50 = percentile(win.lat, 0.5)
	out.warmP99 = percentile(win.lat, 0.99)
	out.warmBytes = win.bytes
	if win.count.sent > 0 {
		out.warmAlloc = float64(ms.TotalAlloc-warmAlloc0) / float64(win.count.sent)
		out.warmMallocs = float64(ms.Mallocs-mallocs0) / float64(win.count.sent)
	}
	out.cache = tgt.n.srv.Cache().Stats()
	return out, tgt, ctx.Err()
}

// speedupOf is the geometric mean of sequential_ms / latency_ms over a cold
// list's answers — the paper's headline ratio.
func speedupOf(bodies [][]byte) (float64, error) {
	logSum, n := 0.0, 0
	for _, body := range bodies {
		var resp serve.OptimizeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, err
		}
		if resp.LatencyMS <= 0 || resp.SequentialMS <= 0 {
			return 0, fmt.Errorf("%s/b%d: latency %v ms, sequential %v ms", resp.Model, resp.Batch, resp.LatencyMS, resp.SequentialMS)
		}
		logSum += math.Log(resp.SequentialMS / resp.LatencyMS)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("no cold answers")
	}
	return math.Exp(logSum / float64(n)), nil
}

// run executes one workload and returns its metrics.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	w := cfg.w
	gen := newGenerator(golden)
	defer gen.close()
	clk := &clock{}
	res := &result{metrics: map[string]float64{}, summaries: map[string]summary{}}
	var total phaseCount
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, format+"\n", args...) }

	// Let the host settle on the kernel before anything is timed: the first
	// ticks of a process run 30-50 % slow (page faults, cold caches).
	warmTicks := 40
	if cfg.quick {
		warmTicks = 2
	}
	clk.tick(warmTicks)
	clk.ticks = clk.ticks[:0]

	// set-up, several times over -------------------------------------------
	var (
		e      *env
		setups []timed
	)
	// Expensive set-ups (seconds) run three times; cheap ones (milliseconds)
	// until they have been sampled for about a second, so the median is of
	// enough samples to be steady. Smoke and traced runs set up once.
	// Set-up repetitions are separated by one tick each; a repetition is
	// rescaled by the three ticks on each side of it.
	const setupTicks = 3
	var spent float64
	for i := 1; ; i++ {
		if e != nil {
			e.teardown()
		}
		clk.boundary(1)
		t := timed{mark: clk.mark()}
		start := time.Now()
		if e, err = setup(ctx, cfg, gen); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t.raw = time.Since(start).Seconds()
		setups = append(setups, t)
		spent += t.raw
		if cfg.quick || cfg.trace || (i >= 3 && (spent >= 1 || i >= 40)) {
			break
		}
	}
	// live is the round target still listening, if any; whatever path leaves
	// run, it is retired before the rest of the topology.
	var live coldTarget
	defer func() {
		if live.retire != nil {
			_ = live.retire() // the run's own error, if any, is the one to report
		}
		e.teardown()
	}()

	// verification pass: one whole round, untimed, every answer checked -----
	var speedup float64
	verifyRound := func(out roundOut) error {
		for i, r := range e.cold {
			if _, err := deepVerify(r, out.bodies[i]); err != nil {
				return err
			}
		}
		speedup, err = speedupOf(out.bodies)
		return err
	}
	if !cfg.quick {
		out, tgt, err := e.round(ctx, clk, true)
		live = tgt
		if err == nil {
			err = verifyRound(out)
		}
		if err != nil {
			return nil, fmt.Errorf("verification pass: %w", err)
		}
		if out.coldCount.failed+out.warmCount.failed > 0 {
			return nil, fmt.Errorf("verification pass: cold %s; warm %s", out.coldCount, out.warmCount)
		}
		if err := e.retire(&live); err != nil {
			return nil, err
		}
		logf("verify   cold %s; warm %s; %d answers re-derived on a fresh profiler", out.coldCount, out.warmCount, len(e.cold))
	}

	// rounds -----------------------------------------------------------------
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	seconds, minRounds := cfg.seconds, 3
	if cfg.trace {
		seconds /= 2 // the other half of the time goes to the layer probes
	}
	if cfg.quick {
		seconds, minRounds = 0, 1
	}
	var (
		rounds       []roundOut
		tracedRounds []bool
		gc0          runtime.MemStats
	)
	runtime.ReadMemStats(&gc0)
	began := time.Now()
	for {
		// In a traced run every other round records spans; the rest do not,
		// and the difference between the two is the tracing overhead.
		traced := cfg.trace && len(rounds)%2 == 0
		if traced {
			gen.rec = rec
		}
		first := len(rounds) == 0
		out, tgt, err := e.round(ctx, clk, cfg.quick && first)
		gen.rec = nil
		live = tgt
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(rounds)+1, err)
		}
		if cfg.quick && first {
			if err := verifyRound(out); err != nil {
				return nil, fmt.Errorf("verification: %w", err)
			}
			out.bodies = nil
		}
		rounds = append(rounds, out)
		tracedRounds = append(tracedRounds, traced)
		total.merge(out.coldCount)
		total.merge(out.warmCount)
		if len(rounds) >= minRounds && time.Since(began).Seconds() >= seconds {
			break
		}
		if err := e.retire(&live); err != nil {
			return nil, err
		}
	}
	// The last round's topology is still up: read the retained heap now.
	runtime.GC()
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	clk.boundary(w.boundaryTicks)
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)

	// metrics ----------------------------------------------------------------
	series := func(name string, f func(roundOut) float64) {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = f(r)
		}
		s := summarize(vals)
		res.metrics[name], res.summaries[name] = s.median, s
	}
	setupVals := make([]float64, len(setups))
	for i, t := range setups {
		setupVals[i] = t.raw * clk.scale(t.mark, setupTicks)
	}
	s := summarize(setupVals)
	res.metrics["setup_s"], res.summaries["setup_s"] = s.median, s
	series("cold_norm_s", func(r roundOut) float64 { return r.cold.raw * clk.scale(r.cold.mark, w.boundaryTicks) })
	series("cold_alloc_mb", func(r roundOut) float64 { return r.coldAlloc / 1e6 })
	series("warm_norm_rps", func(r roundOut) float64 {
		return float64(r.warmCount.sent) / (r.warm.raw * clk.scale(r.warm.mark, w.boundaryTicks))
	})
	series("warm_p50_norm_us", func(r roundOut) float64 { return 1e6 * r.warmP50 * clk.scale(r.warm.mark, w.boundaryTicks) })
	series("warm_alloc_kb", func(r roundOut) float64 { return r.warmAlloc / 1e3 })
	res.metrics["heap_retained_mb"] = float64(heap.HeapAlloc) / 1e6
	res.metrics["sched_speedup"] = speedup

	if cfg.dumpPath != "" {
		if err := dumpSamples(cfg.dumpPath, clk, setups, rounds); err != nil {
			return nil, err
		}
	}

	for _, p := range []struct {
		name  string
		count func(roundOut) phaseCount
	}{{"cold", func(r roundOut) phaseCount { return r.coldCount }}, {"warm", func(r roundOut) phaseCount { return r.warmCount }}} {
		var pc phaseCount
		for _, r := range rounds {
			pc.merge(p.count(r))
		}
		logf("%-8s %s over %d rounds", p.name, pc, len(rounds))
	}
	tickSummary := summarize(clk.ticks)
	logf("host     ref tick median %.3f ms (q1 %.3f, q3 %.3f, n %d); raw = normalised x tick / %d ms",
		1e3*tickSummary.median, 1e3*tickSummary.q1, 1e3*tickSummary.q3, tickSummary.n, refNominal.Milliseconds())

	if cfg.trace {
		lm := &layerInputs{cfg: cfg, e: e, clk: clk, rec: rec, rounds: rounds, traced: tracedRounds, last: live, gc0: gc0, gc1: gc1}
		layers, err := lm.collect(ctx)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		res.metrics = layers
		res.summaries = map[string]summary{}
		logf("spans    %-28s %8s %12s %12s", "name", "count", "total ms", "self ms")
		byName := rec.byName()
		names := make([]string, 0, len(byName))
		for name := range byName {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			lt := byName[name]
			logf("spans    %-28s %8d %12.3f %12.3f", name, lt.count, 1e3*lt.total.Seconds(), 1e3*lt.self.Seconds())
		}
		if cfg.tracePath != "" {
			if err := rec.flush(cfg.tracePath); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			logf("trace    %s", cfg.tracePath)
		}
	}
	if err := e.retire(&live); err != nil {
		return nil, err
	}

	res.attempted, res.failed = total.sent, total.failed
	res.correct = total.failed == 0
	if total.firstErr != nil {
		logf("failed   %v", total.firstErr)
	}
	return res, nil
}

// retire takes a round's target down and forgets the connections to it.
func (e *env) retire(tgt *coldTarget) error {
	retire := tgt.retire
	*tgt = coldTarget{}
	if retire == nil {
		return nil
	}
	err := retire()
	e.gen.close()
	return err
}

// printTable writes one row per metric: name, unit, direction, bound, the
// median and the distribution behind it.
func printTable(w io.Writer, defs []metricDef, res *result) {
	fmt.Fprintf(w, "%-38s %-6s %-6s %6s %14s %14s %14s %4s\n", "metric", "unit", "better", "bound", "median", "q1", "q3", "n")
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			continue
		}
		bound := "-"
		if d.bound > 0 {
			bound = fmt.Sprintf("%.1f%%", 100*d.bound)
		}
		if s, ok := res.summaries[d.name]; ok {
			fmt.Fprintf(w, "%-38s %-6s %-6s %6s %14.6g %14.6g %14.6g %4d\n", d.name, d.unit, d.better, bound, v, s.q1, s.q3, s.n)
		} else {
			fmt.Fprintf(w, "%-38s %-6s %-6s %6s %14.6g %14s %14s %4d\n", d.name, d.unit, d.better, bound, v, "-", "-", 1)
		}
	}
}

// resultLine is the contract's last line of stdout.
func resultLine(defs []metricDef, res *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
}

// dumpSamples writes the run's raw material: the reference timeline and every
// timed sample with its place on it.
func dumpSamples(path string, clk *clock, setups []timed, rounds []roundOut) error {
	type sample struct {
		Raw  float64 `json:"raw_s"`
		Mark int     `json:"mark"`
		P50  float64 `json:"p50_s,omitempty"`
		Sent int     `json:"sent,omitempty"`
	}
	dump := struct {
		NominalS float64   `json:"nominal_s"`
		Ticks    []float64 `json:"ticks_s"`
		Setup    []sample  `json:"setup"`
		Cold     []sample  `json:"cold"`
		Warm     []sample  `json:"warm"`
	}{NominalS: refNominal.Seconds(), Ticks: clk.ticks}
	for _, t := range setups {
		dump.Setup = append(dump.Setup, sample{Raw: t.raw, Mark: t.mark})
	}
	for _, r := range rounds {
		dump.Cold = append(dump.Cold, sample{Raw: r.cold.raw, Mark: r.cold.mark})
		dump.Warm = append(dump.Warm, sample{Raw: r.warm.raw, Mark: r.warm.mark, P50: r.warmP50, Sent: r.warmCount.sent})
	}
	out, err := json.Marshal(dump)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
