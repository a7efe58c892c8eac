package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"ios/internal/baseline"
	"ios/internal/batching"
	"ios/internal/blockcache"
	"ios/internal/cluster"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/plan"
	"ios/internal/profile"
	"ios/internal/schedule"
	"ios/internal/serve"
)

// Probe lanes in the Chrome trace (client lanes are 0..clients-1).
const (
	laneReplay  = 10 // unrolled replay of the cold list through the layers
	laneHandler = 11 // in-process ServeHTTP
	laneProbe   = 12 // everything else
)

// meteredBackend is a profile.Backend that counts and times every simulator
// run; forks share the counters. It is how gpusim's share of a search is read
// from outside: the profiler accepts any Backend through NewWithBackend.
type meteredBackend struct {
	profile.Backend
	runs *atomic.Int64
	busy *atomic.Int64 // nanoseconds
}

func newMeteredBackend(spec gpusim.Spec) *meteredBackend {
	return &meteredBackend{Backend: profile.SimBackend(spec), runs: new(atomic.Int64), busy: new(atomic.Int64)}
}

func (b *meteredBackend) Run(streams []gpusim.Stream) gpusim.Result {
	start := time.Now()
	res := b.Backend.Run(streams)
	b.busy.Add(int64(time.Since(start)))
	b.runs.Add(1)
	return res
}

func (b *meteredBackend) Fork() profile.Backend {
	return &meteredBackend{Backend: b.Backend.Fork(), runs: b.runs, busy: b.busy}
}

// layerInputs is what the traced run hands to the probes.
type layerInputs struct {
	cfg      runConfig
	e        *env
	clk      *clock
	rec      *recorder
	rounds   []roundOut
	traced   []bool
	last     coldTarget
	gc0, gc1 runtime.MemStats

	m map[string]float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func perItem(total time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(n)
}

func ratioPct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// collect fills every per-layer metric. Metrics a workload does not exercise
// are reported as 0 (cluster.* outside fleet_join, core search times on the
// two workloads that must not search), which is itself the assertion the
// issue asks for.
func (l *layerInputs) collect(ctx context.Context) (map[string]float64, error) {
	l.m = make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		l.m[d.name] = 0
	}
	l.fromRounds()
	steps := []func(context.Context) error{l.replayCold, l.handlers, l.hardestBlock, l.planAndBatching, l.persistence, l.ring}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

// fromRounds reports what the rounds themselves counted.
func (l *layerInputs) fromRounds() {
	m, last := l.m, l.rounds[len(l.rounds)-1]
	med := func(f func(roundOut) float64, keep func(int) bool) float64 {
		var vals []float64
		for i, r := range l.rounds {
			if keep == nil || keep(i) {
				vals = append(vals, f(r))
			}
		}
		if len(vals) == 0 {
			return 0
		}
		return median(vals)
	}

	ms := last.measures
	m["measure.hits"], m["measure.misses"] = float64(ms.Hits), float64(ms.Misses)
	m["measure.coalesced"], m["measure.remote"] = float64(ms.Coalesced), float64(ms.Remote)
	m["measure.entries"] = float64(ms.Size)
	m["measure.hit_ratio"] = ratioPct(ms.Saved(), ms.Saved()+ms.Misses)

	bs := last.blocks
	m["blockcache.hits"], m["blockcache.misses"], m["blockcache.remote"] = float64(bs.Hits), float64(bs.Misses), float64(bs.Remote)
	m["blockcache.hit_ratio"] = ratioPct(bs.Saved(), bs.Saved()+bs.Misses)
	m["core.blocks_searched"] = float64(bs.Misses)
	m["core.states"], m["core.transitions"] = float64(last.search.States), float64(last.search.Transitions)

	m["serve.cache_hits"], m["serve.cache_misses"] = float64(last.cache.Hits), float64(last.cache.Misses)
	m["serve.cache_coalesced"] = float64(last.cache.Coalesced)
	m["serve.resp_kb"] = med(func(r roundOut) float64 { return float64(r.warmBytes) / float64(r.warmCount.sent) / 1e3 }, nil)
	m["serve.allocs_per_req"] = med(func(r roundOut) float64 { return r.warmMallocs }, nil)
	m["serve.http_p50_us"] = med(func(r roundOut) float64 { return 1e6 * r.warmP50 }, nil)
	m["serve.http_p99_us"] = med(func(r roundOut) float64 { return 1e6 * r.warmP99 }, nil)

	if l.e.fleet != nil {
		ex := last.exchange
		m["cluster.join_ready_ms"] = med(func(r roundOut) float64 { return 1e3 * r.joinReady.Seconds() }, nil)
		m["cluster.pullplans_ms"] = med(func(r roundOut) float64 { return 1e3 * r.pullPlans.Seconds() }, nil)
		m["cluster.block_fetch_hits"], m["cluster.block_fetch_misses"] = float64(ex.BlockFetchHits), float64(ex.BlockFetchMisses)
		m["cluster.block_fetch_errors"] = float64(ex.BlockFetchErrors)
		m["cluster.measure_fetch_hits"], m["cluster.measure_fetch_misses"] = float64(ex.MeasureFetchHits), float64(ex.MeasureFetchMisses)
		m["cluster.measure_fetch_errors"] = float64(ex.MeasureFetchErrors)
		m["cluster.peer_requests"] = float64(last.peerRequests)
		m["cluster.peer_kb"] = float64(last.peerBytes) / 1e3
		m["cluster.peer_rtt_p50_us"] = 1e6 * last.peerRTT
		m["cluster.sync_ms"] = 1e3 * l.e.syncTime.Seconds()
		m["cluster.pushed_entries"] = float64(l.e.pushed)
		m["cluster.seed_fetch_misses"] = float64(l.e.seedFetchMisses)
		m["cluster.local_searches"] = float64(bs.Misses)
	}

	ticks := summarize(l.clk.ticks)
	m["host.ref_ms"] = 1e3 * ticks.median
	m["host.ref_spread_pct"] = 100 * (ticks.q3 - ticks.q1) / ticks.median
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["host.gc_cycles"] = float64(l.gc1.NumGC - l.gc0.NumGC)
	m["host.gc_pause_ms"] = float64(l.gc1.PauseTotalNs-l.gc0.PauseTotalNs) / 1e6
	m["host.cold_raw_s"] = med(func(r roundOut) float64 { return r.cold.raw }, nil)
	m["host.warm_raw_rps"] = med(func(r roundOut) float64 { return float64(r.warmCount.sent) / r.warm.raw }, nil)

	// Rounds alternate traced / untraced; compare them in normalised time so
	// host drift between neighbouring rounds does not pose as overhead.
	cost := func(r roundOut) float64 {
		b := l.e.w.boundaryTicks
		return r.cold.raw*l.clk.scale(r.cold.mark, b) + r.warm.raw*l.clk.scale(r.warm.mark, b)
	}
	on := med(cost, func(i int) bool { return l.traced[i] })
	off := med(cost, func(i int) bool { return !l.traced[i] })
	if on > 0 && off > 0 {
		m["host.trace_overhead_pct"] = 100 * (on/off - 1)
	}
}

// replayCold walks the cold list through the layers' exported entry points
// one call at a time, the way serve.Server.entry strings them together, with
// a span round each call. The caches start in the state the workload's cold
// target starts in: empty, loaded from the saved files, or merged from the
// fleet's snapshots.
func (l *layerInputs) replayCold(ctx context.Context) error {
	e, w, rec, m := l.e, l.e.w, l.rec, l.m
	mc, bc := measure.NewCache(), blockcache.NewCache()
	var (
		p        *plan.Plan
		keySpans time.Duration // Σ of the spans the budget counts as attributed
		err      error
	)
	switch w.topo {
	case topoRestart:
		// A restart pays the loads before it answers anything, so they are
		// part of its cold phase and of the budget.
		keySpans += rec.timed("measure.load", laneReplay, 0, -1, func() { _, err = mc.LoadFile(e.measureFile) })
		if err != nil {
			return err
		}
		keySpans += rec.timed("blockcache.load", laneReplay, 0, -1, func() { _, err = bc.LoadFile(e.blockFile) })
		if err != nil {
			return err
		}
		keySpans += rec.timed("plan.load", laneReplay, 0, -1, func() { p, err = plan.LoadFile(e.planFile) })
		if err != nil {
			return err
		}
	case topoFleet:
		// A joiner fetches entries one by one from its peers; merging their
		// snapshots here puts the caches in the state those fetches leave
		// them in, and the fetches themselves stay unattributed (their rows
		// are cluster.peer_requests x cluster.peer_rtt_p50_us).
		for _, n := range e.fleet.nodes[:fleetSize] {
			ments, _ := n.srv.MeasureCache().Snapshot(0)
			if _, err := mc.Merge(ments); err != nil {
				return err
			}
			bents, _ := n.srv.BlockCache().Snapshot(0)
			if _, err := bc.Merge(bents); err != nil {
				return err
			}
		}
		p = e.fleet.nodes[0].srv.Plans()[0]
	}

	backend := newMeteredBackend(gpusim.TeslaV100)
	opts := core.Options{}.Canonical()
	optsFP := opts.Fingerprint()
	var (
		acc          = map[string]*layerAcc{}
		blocks       int
		measurements int
		jsonBytes    int
		searchWall   time.Duration
		phaseWall    = map[string]time.Duration{}
	)
	step := func(name string, req, parent int, f func()) {
		d := rec.timed(name, laneReplay, req, parent, f)
		a := acc[name]
		if a == nil {
			a = &layerAcc{}
			acc[name] = a
		}
		a.n++
		a.total += d
	}

	for i, r := range e.cold {
		root := rec.begin("replay.key", laneReplay, i, -1)
		rootStart := time.Now()
		prof := profile.NewWithBackend(backend.Fork(), profile.Options{})
		prof.SetMeasureCache(mc)

		var g *graph.Graph
		var sched *schedule.Schedule
		if r.kind == kindOptimizePlan {
			var pt *plan.Point
			var exact bool
			step("plan.route", i, root, func() { pt, _, exact = p.Route(r.key.batch) })
			g, sched = pt.Graph, pt.Schedule
			if !exact {
				step("graph.build", i, root, func() { g, err = pt.Graph.WithBatch(r.key.batch) })
				if err != nil {
					return err
				}
				var recipe []byte
				step("schedule.marshal", i, root, func() { recipe, err = pt.Schedule.MarshalJSON() })
				if err != nil {
					return err
				}
				step("schedule.fromjson", i, root, func() { sched, err = schedule.FromJSON(recipe, g) })
				if err != nil {
					return err
				}
			}
		} else {
			if r.kind == kindOptimizeGraph {
				var req serve.OptimizeRequest
				if err := json.Unmarshal(r.body, &req); err != nil {
					return err
				}
				step("graph.fromjson", i, root, func() { g, err = graph.FromJSON(req.Graph) })
				if err != nil {
					return err
				}
				step("graph.partition", i, root, func() { _, err = g.Partition(opts.MaxBlockOps) })
				if err != nil {
					return err
				}
				step("graph.fingerprint", i, root, func() { _, err = g.Fingerprint() })
				if err != nil {
					return err
				}
			} else {
				entry, _ := models.EntryByName(r.key.model)
				step("graph.build", i, root, func() { g = entry.Build(r.key.batch) })
			}
			// core.OptimizeWithProgress partitions, prelowers and searches in
			// one call; partition and prelower are timed on their own first
			// (prelowering twice is free: the second pass finds every node
			// done), and the search span holds what is left.
			var parts []*graph.Block
			step("graph.partition", i, root, func() { parts, err = g.Partition(opts.MaxBlockOps) })
			if err != nil {
				return err
			}
			blocks += len(parts)
			step("profile.prelower", i, root, func() { prof.Prelower(g.SchedulableNodes()) })

			var out *core.Result
			var events []progressEvent
			begin := time.Now()
			step("core.search", i, root, func() {
				out, err = core.OptimizeWithProgress(ctx, g, prof, opts.WithBlockCache(bc), func(p core.Progress) {
					events = append(events, progressEvent{time.Since(begin), p.Phase})
				})
			})
			if err != nil {
				return err
			}
			searchWall += time.Since(begin)
			// Wall time between two level barriers goes to the phase whose
			// level just ended. With blocks searched in parallel the split
			// between them is arbitrary, but the parts still sum to the wall.
			prev := time.Duration(0)
			for _, ev := range events {
				phaseWall[ev.phase] += ev.at - prev
				prev = ev.at
			}
			sched = out.Schedule
			measurements += out.Stats.Measurements
		}

		step("schedule.validate", i, root, func() { err = sched.Validate() })
		if err != nil {
			return err
		}
		step("profile.measure_schedule", i, root, func() { _, err = prof.MeasureSchedule(sched) })
		if err != nil {
			return err
		}
		var seq *schedule.Schedule
		step("baseline.sequential", i, root, func() { seq, err = baseline.Sequential(g) })
		if err != nil {
			return err
		}
		step("profile.measure_schedule", i, root, func() { _, err = prof.MeasureSchedule(seq) })
		if err != nil {
			return err
		}
		var js []byte
		step("schedule.marshal", i, root, func() { js, err = sched.MarshalJSON() })
		if err != nil {
			return err
		}
		jsonBytes += len(js)
		step("schedule.summarize", i, root, func() { sched.Summarize() })
		rec.end(root)
		keySpans += time.Since(rootStart)

		// Outside the budget: what a block-cache hit costs per block, and the
		// decode side of the schedule JSON, neither of which the path above
		// necessarily took.
		side := rec.begin("replay.blockpass", laneReplay, i, -1)
		step("schedule.fromjson", i, side, func() { _, err = schedule.FromJSON(js, g) })
		if err != nil {
			return err
		}
		if r.kind != kindOptimizePlan {
			parts, err := g.Partition(opts.MaxBlockOps)
			if err != nil {
				return err
			}
			for _, b := range parts {
				if b.All().IsEmpty() {
					continue
				}
				var bp *profile.Profiler
				var key []byte
				var ent *blockcache.Entry
				var stages []schedule.Stage
				step("profile.fork", i, side, func() { bp = prof.Fork() })
				step("blockcache.fingerprint", i, side, func() { key = blockcache.Fingerprint(b, bp, optsFP) })
				ent, ok := bc.Lookup(key)
				if !ok {
					return fmt.Errorf("%s: block %d missing from the block cache after its search", r.key, b.Index)
				}
				step("blockcache.rebind", i, side, func() { stages, err = blockcache.Rebind(b, ent) })
				if err != nil {
					return err
				}
				step("blockcache.canonicalize", i, side, func() { _, err = blockcache.Canonicalize(b, stages) })
				if err != nil {
					return err
				}
			}
		}
		rec.end(side)
	}

	get := func(name string) *layerAcc {
		if a := acc[name]; a != nil {
			return a
		}
		return &layerAcc{}
	}
	m["graph.build_us"] = get("graph.build").meanUS()
	m["graph.fromjson_us"] = get("graph.fromjson").meanUS()
	m["graph.fingerprint_us"] = get("graph.fingerprint").meanUS()
	m["graph.partition_us"] = get("graph.partition").meanUS()
	m["graph.blocks"] = float64(blocks)
	m["profile.prelower_us"] = get("profile.prelower").meanUS()
	m["profile.fork_us"] = get("profile.fork").meanUS()
	m["profile.measure_schedule_us"] = get("profile.measure_schedule").meanUS()
	m["profile.stage_measurements"] = float64(measurements)
	m["gpusim.runs"] = float64(backend.runs.Load())
	m["gpusim.busy_ms"] = float64(backend.busy.Load()) / 1e6
	m["gpusim.ns_per_run"] = perItem(time.Duration(backend.busy.Load()), int(backend.runs.Load()), time.Nanosecond)
	m["core.search_ms"] = ms(searchWall)
	m["core.discover_ms"] = ms(phaseWall["discover"])
	m["core.compute_ms"] = ms(phaseWall["compute"])
	m["blockcache.fingerprint_us_per_block"] = get("blockcache.fingerprint").meanUS()
	m["blockcache.rebind_us_per_block"] = get("blockcache.rebind").meanUS()
	m["blockcache.canonicalize_us"] = get("blockcache.canonicalize").meanUS()
	m["schedule.marshal_us"] = get("schedule.marshal").meanUS()
	m["schedule.fromjson_us"] = get("schedule.fromjson").meanUS()
	m["schedule.summarize_us"] = get("schedule.summarize").meanUS()
	m["schedule.validate_us"] = get("schedule.validate").meanUS()
	m["schedule.json_kb"] = float64(jsonBytes) / 1e3 / float64(len(e.cold))

	// The budget: what share of the end-to-end cold phase the layers, called
	// one after another in this process, do not account for. What is left is
	// HTTP, JSON envelopes, and — for serve_warm and fleet_join — file loads
	// and peer fetches, which have rows of their own.
	if cold := m["host.cold_raw_s"]; cold > 0 {
		m["budget.cold_unattributed_pct"] = 100 * (cold - keySpans.Seconds()) / cold
	}
	return nil
}

// notCached is the compute function of a lookup that must hit.
func notCached(context.Context) (*serve.Entry, error) {
	return nil, fmt.Errorf("schedule cache lost a key it listed")
}

type progressEvent struct {
	at    time.Duration
	phase string
}

type layerAcc struct {
	n     int
	total time.Duration
}

func (a *layerAcc) meanUS() float64 { return perItem(a.total, a.n, time.Microsecond) }

// handlers times serve.Server.ServeHTTP on the live warm target with a
// discarding writer, one request kind at a time, then replays the first
// client's warm sequence the same way: the gap between that and the loopback
// latencies is transport.
func (l *layerInputs) handlers(ctx context.Context) error {
	e, w, m := l.e, l.e.w, l.m
	srv := l.last.n.srv
	probes := map[reqKind][]request{}
	for _, r := range e.cold {
		if r.kind == kindOptimize {
			probes[kindOptimize] = append(probes[kindOptimize], r)
		}
	}
	if w.planModel != "" {
		for b := 1; b <= 128; b++ {
			probes[kindOptimizePlan] = append(probes[kindOptimizePlan], w.optimizeRequest(modelKey{w.planModel, b}))
		}
	}
	for i, r := range probes[kindOptimize] {
		if i == 16 {
			break
		}
		status, body := call(srv, r)
		var resp serve.OptimizeResponse
		if status != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			return fmt.Errorf("handler probe: %s answered %d", r.golden, status)
		}
		k := r.key
		for _, baseline := range []string{"sequential", "greedy"} {
			probes[kindMeasureBaseline] = append(probes[kindMeasureBaseline], request{kind: kindMeasureBaseline, method: http.MethodPost, path: "/measure",
				body: mustJSON(map[string]any{"model": k.model, "batch": k.batch, "baseline": baseline})})
		}
		probes[kindMeasureSchedule] = append(probes[kindMeasureSchedule], request{kind: kindMeasureSchedule, method: http.MethodPost, path: "/measure",
			body: mustJSON(map[string]any{"model": k.model, "batch": k.batch, "schedule": resp.Schedule})})
	}
	for _, path := range []string{"/stats", "/models", "/plans"} {
		probes[kindGet] = append(probes[kindGet], request{kind: kindGet, method: http.MethodGet, path: path})
	}

	const perKind = 256
	for kind, reqs := range probes {
		// Once through untimed: the first plan-routed answer per batch and the
		// first measurement per schedule fill memos the steady state has.
		for _, r := range reqs {
			callDiscard(srv, r)
		}
		var total time.Duration
		for i := 0; i < perKind; i++ {
			r := reqs[i%len(reqs)]
			var status int
			total += l.rec.timed("serve.handler."+kindNames[kind], laneHandler, i, -1, func() { status, _ = callDiscard(srv, r) })
			if status != http.StatusOK {
				return fmt.Errorf("handler probe: %s %s answered %d", r.method, r.path, status)
			}
		}
		m["serve.handler_us."+kindNames[kind]] = perItem(total, perKind, time.Microsecond)
	}

	// The schedule cache on its own: the lookup a hit costs before any HTTP.
	if keys := srv.Cache().Keys(); len(keys) > 0 {
		const n = 20000
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, _, err := srv.Cache().GetOrCompute(ctx, keys[i%len(keys)], notCached); err != nil {
				return err
			}
		}
		m["serve.schedcache_hit_ns"] = perItem(time.Since(start), n, time.Nanosecond)
	}

	seq := e.seqs[0]
	if len(seq) > 1000 {
		seq = seq[:1000]
	}
	lats := make([]float64, 0, len(seq))
	var total time.Duration
	for i, r := range seq {
		d := l.rec.timed("serve.replay", laneHandler, i, -1, func() { callDiscard(srv, r) })
		total += d
		lats = append(lats, d.Seconds())
	}
	replayMean := total.Seconds() / float64(len(seq))
	m["serve.transport_us"] = m["serve.http_p50_us"] - 1e6*median(lats)
	if do := l.rec.byName()["client.do.warm"]; do.count > 0 {
		httpMean := do.total.Seconds() / float64(do.count)
		m["budget.warm_unattributed_pct"] = 100 * (httpMean - replayMean) / httpMean
	}
	return nil
}

// hardestBlock searches NasNet's hardest block alone at one worker and at
// NumCPU: the only multi-core datum the level-parallel engine has.
func (l *layerInputs) hardestBlock(ctx context.Context) error {
	b, err := core.HardestBlock(models.NasNetA(1))
	if err != nil {
		return err
	}
	search := func(workers int) (time.Duration, core.Stats, *meteredBackend, error) {
		backend := newMeteredBackend(gpusim.TeslaV100)
		prof := profile.NewWithBackend(backend, profile.Options{})
		var stats core.Stats
		var err error
		d := l.rec.timed(fmt.Sprintf("core.hardest_block.w%d", workers), laneProbe, workers, -1, func() {
			_, stats, err = core.OptimizeBlockContext(ctx, b, prof, core.Options{Workers: workers})
		})
		return d, stats, backend, err
	}
	d1, stats, backend, err := search(1)
	if err != nil {
		return err
	}
	dn, _, _, err := search(runtime.NumCPU())
	if err != nil {
		return err
	}
	l.m["core.hardest_block_ms_w1"] = ms(d1)
	l.m["core.hardest_block_ms_wmax"] = ms(dn)
	l.m["core.parallel_speedup"] = d1.Seconds() / dn.Seconds()
	// At one worker nothing overlaps, so search time minus simulator time is
	// the engine's own cost per (S, S') pair.
	l.m["core.ns_per_transition"] = perItem(d1-time.Duration(backend.busy.Load()), stats.Transitions, time.Nanosecond)
	return nil
}

// planAndBatching builds the inception batch plan from cold, routes every
// batch through it, round-trips it through its JSON form, and drives the
// batching queue over a seeded Poisson trace against it on a virtual clock.
func (l *layerInputs) planAndBatching(ctx context.Context) error {
	m := l.m
	mc, bc := measure.NewCache(), blockcache.NewCache()
	var p *plan.Plan
	var err error
	d := l.rec.timed("plan.build", laneProbe, 0, -1, func() {
		p, err = plan.Build(ctx, plan.BuildConfig{
			Graph:   models.InceptionV3(1),
			Batches: planBatches,
			Device:  gpusim.TeslaV100.Name,
			Opts:    core.Options{}.Canonical().WithBlockCache(bc),
			NewProfiler: func() *profile.Profiler {
				prof := profile.New(gpusim.TeslaV100)
				prof.SetMeasureCache(mc)
				return prof
			},
		})
	})
	if err != nil {
		return err
	}
	m["plan.build_ms"] = ms(d)
	m["plan.searches"] = float64(bc.Stats().Misses)

	const laps = 200
	d = l.rec.timed("plan.route", laneProbe, 0, -1, func() {
		for i := 0; i < laps; i++ {
			for b := 1; b <= 128; b++ {
				p.Route(b)
			}
		}
	})
	m["plan.route_ns"] = perItem(d, laps*128, time.Nanosecond)

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return err
	}
	d = l.rec.timed("plan.load", laneProbe, 0, -1, func() { _, err = plan.Load(&buf) })
	if err != nil {
		return err
	}
	m["plan.load_ms"] = ms(d)

	// Offered load: 60 % of what the plan says the device sustains at its
	// largest batch — busy enough that the queue batches, light enough that
	// the SLO is reachable. Virtual time, so the outputs repeat exactly.
	const requests = 20000
	rate := 0.6 * p.EstimateThroughput(p.MaxBatch())
	arrivals := batching.PoissonArrivals(requests, rate, l.cfg.seed)
	var sim batching.SimResult
	d = l.rec.timed("batching.simulate", laneProbe, 0, -1, func() {
		sim, err = batching.SimulateAdaptive(batching.Config{Model: p, SLO: 100 * time.Millisecond}, arrivals)
	})
	if err != nil {
		return err
	}
	m["batching.decide_ns"] = perItem(d, requests, time.Nanosecond)
	m["batching.sim_goodput_rps"] = sim.ImagesPerSec
	m["batching.sim_p99_ms"] = ms(sim.P99)
	m["batching.slo_violations"] = float64(sim.SLOViolations)
	return nil
}

// persistence saves, reloads, merges and wire-decodes the live warm target's
// two structural caches.
func (l *layerInputs) persistence(context.Context) error {
	m, srv := l.m, l.last.n.srv
	dir, err := os.MkdirTemp("", "iosbench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	timed := func(name string, f func() error) (time.Duration, error) {
		var err error
		d := l.rec.timed(name, laneProbe, 0, -1, func() { err = f() })
		return d, err
	}

	mfile := filepath.Join(dir, "measure.json")
	d, err := timed("measure.save", func() error { return srv.MeasureCache().SaveFile(mfile) })
	if err != nil {
		return err
	}
	m["measure.save_ms"] = ms(d)
	d, err = timed("measure.load", func() error { _, err := measure.NewCache().LoadFile(mfile); return err })
	if err != nil {
		return err
	}
	m["measure.load_ms"] = ms(d)
	ments, _ := srv.MeasureCache().Snapshot(0)
	d, err = timed("measure.merge", func() error { _, err := measure.NewCache().Merge(ments); return err })
	if err != nil {
		return err
	}
	m["measure.merge_us_per_entry"] = perItem(d, len(ments), time.Microsecond)

	bfile := filepath.Join(dir, "blocks.json")
	d, err = timed("blockcache.save", func() error { return srv.BlockCache().SaveFile(bfile) })
	if err != nil {
		return err
	}
	m["blockcache.save_ms"] = ms(d)
	d, err = timed("blockcache.load", func() error { _, err := blockcache.NewCache().LoadFile(bfile); return err })
	if err != nil {
		return err
	}
	m["blockcache.load_ms"] = ms(d)
	if fi, err := os.Stat(bfile); err == nil {
		m["blockcache.file_kb"] = float64(fi.Size()) / 1e3
	}
	bents, _ := srv.BlockCache().Snapshot(0)
	d, err = timed("blockcache.wire_decode", func() error {
		for _, we := range bents {
			if _, _, err := we.Decode(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["blockcache.wire_decode_us_per_entry"] = perItem(d, len(bents), time.Microsecond)
	return nil
}

// ring times consistent-hash ownership lookups on a four-member ring.
func (l *layerInputs) ring(context.Context) error {
	r, err := cluster.NewRing([]string{"node0", "node1", "node2", "node3"}, 0)
	if err != nil {
		return err
	}
	const n = 50000
	key := make([]byte, 32)
	rnd := newRNG(l.cfg.seed, 0x51)
	d := l.rec.timed("cluster.ring_owner", laneProbe, 0, -1, func() {
		for i := 0; i < n; i++ {
			v := rnd.next()
			for j := range key {
				key[j] = byte(v >> (8 * (j % 8)))
			}
			r.Owner(key)
		}
	})
	l.m["cluster.ring_owner_ns"] = perItem(d, n, time.Nanosecond)
	return nil
}
