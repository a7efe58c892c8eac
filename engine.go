package ios

import (
	"context"
	"fmt"
	"time"

	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/measure"
	"ios/internal/plan"
	"ios/internal/profile"
	"ios/internal/schedule"
	"ios/internal/serve"
)

// MeasureCache is a structural measurement cache: a
// concurrent, deduplicating map from a canonical stage fingerprint —
// computed from the lowered kernel signatures and concurrency-group
// structure of a stage, invariant to node identity and graph position —
// to the exact simulated latency of that stage. Attached to an Engine
// with WithMeasureCache (or to a server via ServerConfig.MeasureCache),
// it persists across Optimize calls and is shared by every DP worker, so
// repeated structure (NasNet's stacked cells, re-served models, warm
// restarts via Save/Load) is simulated once. Cached values are exact
// simulator outputs: schedules, costs, and search statistics are
// bit-identical with or without the cache — only the measurement count
// drops.
type MeasureCache = measure.Cache

// MeasureCacheStats counts measurement-cache traffic (hits, misses,
// coalesced in-flight waits, loaded entries).
type MeasureCacheStats = measure.Stats

// NewMeasureCache returns an empty, unbounded structural measurement
// cache — right for fixed workloads, whose entry count is bounded by the
// workload's structure.
func NewMeasureCache() *MeasureCache { return measure.NewCache() }

// NewMeasureCacheSize returns a measurement cache holding at most
// maxEntries fingerprints (0 = unbounded). Long-running processes
// measuring arbitrary graphs should be bounded; over capacity, entries
// are shed and simply re-simulated on next use — correctness is
// unaffected.
func NewMeasureCacheSize(maxEntries int) *MeasureCache { return measure.NewCacheSize(maxEntries) }

// BlockCache is a whole-block schedule cache: a concurrent,
// deduplicating map from a canonical structural block fingerprint —
// computed from the block's DAG, its operators' lowered kernel programs,
// the device model, and the search options, invariant to node identity
// and graph position — to the completed schedule the DP produced for that
// structure. Attached to an Engine with WithBlockCache (or to a server
// via ServerConfig.BlockCache), it persists across Optimize calls and is
// shared by every concurrent search, so a repeated cell (NasNet stacks
// ~18 near-identical ones) pays one DP search instead of one per
// repetition. Cached schedules are exact search outputs rebound onto the
// requesting block's nodes: results are bit-identical with or without the
// cache — only the number of block searches drops. Persist with
// Save/SaveFile, reload with Load/LoadFile.
type BlockCache = blockcache.Cache

// BlockCacheStats counts block-cache traffic (hits, misses, coalesced
// in-flight waits, loaded entries).
type BlockCacheStats = blockcache.Stats

// NewBlockCache returns an empty, unbounded whole-block schedule cache —
// right for fixed workloads, whose entry count is bounded by the models'
// distinct block structures.
func NewBlockCache() *BlockCache { return blockcache.NewCache() }

// NewBlockCacheSize returns a block cache holding at most maxEntries
// completed block schedules (0 = unbounded). Long-running processes
// optimizing arbitrary graphs should be bounded; over capacity, entries
// are shed and simply re-searched on next use — correctness is
// unaffected.
func NewBlockCacheSize(maxEntries int) *BlockCache { return blockcache.NewCacheSize(maxEntries) }

// Progress is one search-progress snapshot, delivered to the callback
// installed with WithProgress (or passed to OptimizeWithProfilerContext's
// underlying core.OptimizeWithProgress) at every level barrier of the DP
// engine. See the core package for field semantics.
type Progress = core.Progress

// Backend is the measurement substrate schedules are profiled on. The
// calibrated GPU simulator is the default (NewSimBackend); custom
// implementations plug a different simulator fidelity — or real
// hardware — into the same search. See ios/internal/profile.Backend.
//
// The SimStream/SimResult/SimKernel aliases make the interface
// implementable outside this module: a custom backend's Run has
// signature func([]ios.SimStream) ios.SimResult.
type Backend = profile.Backend

// SimStream is one stream program: kernels issued back-to-back on a
// single simulated CUDA stream (alias of the internal simulator type so
// custom Backends can be written outside this module).
type SimStream = gpusim.Stream

// SimResult is one simulated multi-stream execution's outcome.
type SimResult = gpusim.Result

// SimKernel is one kernel launch within a stream program.
type SimKernel = gpusim.Kernel

// NewSimBackend returns the default measurement backend: a calibrated
// GPU simulator for the device.
func NewSimBackend(dev Device) Backend { return profile.SimBackend(dev) }

// Engine is the context-first entry point to IOS: a reusable, concurrency
// -safe handle configured once (device, workers, measurement backend,
// optional schedule and measurement caches, progress reporting) whose
// methods all take a context.Context and honor its cancellation and
// deadline:
//
//	eng := ios.NewEngine(ios.V100, ios.WithWorkers(8), ios.WithCache(1024))
//	res, err := eng.Optimize(ctx, g, ios.Options{})
//	lat, err := eng.Measure(ctx, g, res.Schedule)
//
// A cancelled Optimize drains its worker pool promptly, discards partial
// results, and returns the wrapped ctx.Err() (errors.Is with
// context.Canceled / context.DeadlineExceeded holds).
//
// Methods may be called from multiple goroutines: each call forks its own
// profiler (sharing the engine's immutable device model), and the
// optional schedule cache coalesces concurrent Optimize calls for the
// same (graph, options) key into a single search.
type Engine struct {
	backend  Backend
	workers  int
	pruning  *Pruning
	progress func(Progress)
	cache    *serve.ScheduleCache
	mcache   *measure.Cache
	bcache   *blockcache.Cache
	prof     *Profiler
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithWorkers sets the default worker-goroutine count of the per-block DP
// engine for searches whose Options do not set Workers themselves
// (n <= 0 restores the GOMAXPROCS default). Like Options.Workers this is
// a pure execution knob: results are identical at every setting.
func WithWorkers(n int) EngineOption { return func(e *Engine) { e.workers = n } }

// WithCache gives the engine a schedule cache holding up to capacity
// optimization results, keyed by (graph fingerprint, batch, device,
// options fingerprint). Concurrent Optimize calls for the same key
// coalesce into one search (singleflight), later calls are served from
// the cache, and a cancelled search never poisons the key. capacity <= 0
// means unbounded.
func WithCache(capacity int) EngineOption {
	return func(e *Engine) { e.cache = serve.NewScheduleCache(capacity) }
}

// WithProgress installs a progress callback for the engine's searches.
// The callback is never invoked concurrently and runs on the search's
// critical path; keep it fast.
func WithProgress(fn func(Progress)) EngineOption {
	return func(e *Engine) { e.progress = fn }
}

// WithBackend swaps the measurement substrate: schedules are profiled on
// b instead of a fresh simulator for the device. The backend's
// Spec().Name should still identify the device for cache keying.
func WithBackend(b Backend) EngineOption { return func(e *Engine) { e.backend = b } }

// WithMeasureCache attaches a structural measurement cache: stage
// simulations are deduplicated by canonical fingerprint across every
// Optimize/Measure call on this engine (and across engines and servers
// sharing the same cache). Pass nil to give the engine a fresh private
// cache. Results are bit-identical either way — only the number of
// simulator invocations drops; see MeasureCache.
func WithMeasureCache(c *MeasureCache) EngineOption {
	return func(e *Engine) {
		if c == nil {
			c = measure.NewCache()
		}
		e.mcache = c
	}
}

// WithBlockCache attaches a whole-block schedule cache: every block DP
// search on this engine (and on engines and servers sharing the same
// cache) is deduplicated by the block's canonical structural fingerprint,
// with concurrent searches of the same structure coalescing into one.
// Pass nil to give the engine a fresh private cache. Results are
// bit-identical either way — only the number of block searches drops; see
// BlockCache.
func WithBlockCache(c *BlockCache) EngineOption {
	return func(e *Engine) {
		if c == nil {
			c = blockcache.NewCache()
		}
		e.bcache = c
	}
}

// WithPruning sets the engine's default pruning for searches whose
// Options leave Pruning unset (the per-call value always wins). A zero
// Pruning argument — including the exported NoPruning value — is taken
// at its word and normalized to the explicit unbounded spelling
// (R=-1, S=-1): at this layer the caller has unambiguously asked for no
// pruning, so the zero value must not fall back to the paper defaults.
func WithPruning(p Pruning) EngineOption {
	if p == (Pruning{}) {
		p = Pruning{R: -1, S: -1}
	}
	return func(e *Engine) { e.pruning = &p }
}

// WithNoPruning makes the exhaustive search the engine's default,
// resolving the Options footgun where Options{Pruning: NoPruning} is
// indistinguishable from the zero value (and therefore selects the paper
// defaults): an engine built with WithNoPruning searches the full
// schedule space for every call that does not set explicit bounds.
func WithNoPruning() EngineOption {
	return func(e *Engine) { e.pruning = &Pruning{R: -1, S: -1} }
}

// NewEngine returns an Engine for the device, configured by the options.
func NewEngine(dev Device, opts ...EngineOption) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	if e.backend == nil {
		e.backend = profile.SimBackend(dev)
	}
	e.prof = profile.NewWithBackend(e.backend, profile.Options{})
	if e.mcache != nil {
		e.prof.SetMeasureCache(e.mcache)
	}
	return e
}

// Device returns the device the engine optimizes for.
func (e *Engine) Device() Device { return e.backend.Spec() }

// CacheStats reports the schedule cache's traffic counters; the zero
// value when the engine has no cache (see WithCache).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// MeasureCacheStats reports the structural measurement cache's traffic
// counters; the zero value when the engine has no measurement cache (see
// WithMeasureCache).
func (e *Engine) MeasureCacheStats() MeasureCacheStats {
	if e.mcache == nil {
		return MeasureCacheStats{}
	}
	return e.mcache.Stats()
}

// BlockCacheStats reports the whole-block schedule cache's traffic
// counters; the zero value when the engine has no block cache (see
// WithBlockCache).
func (e *Engine) BlockCacheStats() BlockCacheStats {
	if e.bcache == nil {
		return BlockCacheStats{}
	}
	return e.bcache.Stats()
}

// newProfiler forks a per-call profiler off the engine's root. Forks
// share the root's device model and measurement cache (WithMeasureCache,
// if any — there is no per-profiler stage memo) but each has its own
// simulator and lowers the graph it is used on into its own table, so
// concurrent calls share nothing unsynchronized.
func (e *Engine) newProfiler() *Profiler { return e.prof.Fork() }

// fillDefaults merges the engine-level defaults into per-call options
// (per-call values always win).
func (e *Engine) fillDefaults(opts Options) Options {
	if opts.Workers == 0 && e.workers != 0 {
		opts.Workers = e.workers
	}
	if opts.Pruning == (Pruning{}) && e.pruning != nil {
		opts.Pruning = *e.pruning
	}
	if opts.BlockCache() == nil && e.bcache != nil {
		opts = opts.WithBlockCache(e.bcache)
	}
	return opts
}

// Optimize runs the IOS dynamic program on the graph under ctx and
// returns the best schedule found together with search statistics. With
// a pre-cancelled context it returns immediately without measuring a
// single stage; cancelled mid-search, it drains all workers and returns
// the wrapped ctx.Err(). When the engine has a cache (WithCache),
// results are cached and concurrent calls for the same key share one
// search.
func (e *Engine) Optimize(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	opts = e.fillDefaults(opts)
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if e.cache == nil {
		return core.OptimizeWithProgress(ctx, g, e.newProfiler(), opts, e.progress)
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, err
	}
	key := serve.Key{
		Model:  "graph:" + fp,
		Batch:  g.Batch(),
		Device: e.backend.Spec().Name,
		Opts:   opts.Fingerprint(),
	}
	entry, _, err := e.cache.GetOrCompute(ctx, key, func(ctx context.Context) (*serve.Entry, error) {
		res, err := core.OptimizeWithProgress(ctx, g, e.newProfiler(), opts, e.progress)
		if err != nil {
			return nil, err
		}
		return &serve.Entry{
			Graph:      g,
			Schedule:   res.Schedule,
			Stats:      res.Stats,
			ComputedAt: time.Now(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// A cache hit may have been computed for a different graph value with
	// the same fingerprint (which covers node names and block cuts);
	// transfer the schedule onto the caller's graph so Optimize's result
	// always measures against the graph it was asked about.
	s, err := entry.Schedule.Transfer(g)
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s, Stats: entry.Stats}, nil
}

// OptimizeBatches runs a batch-specialization sweep under ctx: one IOS
// search per batch size, in order (the graph is rebuilt per batch with
// Graph.WithBatch; each search uses the engine's WithWorkers setting),
// then the measured cross-batch latency matrix — every specialized
// schedule transferred onto every other batch's graph, reproducing the
// shape of the paper's Table 3. The whole sweep shares one structural
// measurement cache (the engine's own when configured with
// WithMeasureCache, otherwise a sweep-local one), so structure repeated
// across batches and cross-measurements is simulated once.
//
// The resulting BatchPlan answers both planning questions: which schedule
// to serve at a batch (Route, used by the serving tier's nearest-batch
// routing) and what reusing a schedule off its planned batch costs
// (Penalty/EstimatePenalty). Plans persist with BatchPlan.Save/SaveFile
// and reload with LoadBatchPlan.
func (e *Engine) OptimizeBatches(ctx context.Context, g *Graph, batches []int) (*BatchPlan, error) {
	opts := e.fillDefaults(Options{})
	root := e.prof
	if e.mcache == nil {
		// Give the sweep a private shared cache: every profiler below is a
		// fork of root and forks share the cache pointer.
		root = e.prof.Fork()
		root.SetMeasureCache(measure.NewCache())
	}
	return plan.Build(ctx, plan.BuildConfig{
		Graph:       g,
		Batches:     batches,
		Device:      e.backend.Spec().Name,
		Opts:        opts,
		NewProfiler: root.Fork,
		Progress:    e.progress,
	})
}

// Measure returns the end-to-end latency in seconds of executing the
// schedule on the engine's device, checking ctx between stages. A
// schedule built for a different graph is not silently re-wrapped: every
// stage must reference nodes of g, or Measure fails with a descriptive
// error. In particular a schedule
// optimized at a different batch size is rejected with an error naming
// both batches — schedules are batch-specialized (Table 3), so measuring
// one at a foreign batch is almost always a serving bug; use
// OptimizeBatches and BatchPlan routing to serve other batch sizes
// deliberately.
func (e *Engine) Measure(ctx context.Context, g *Graph, s *Schedule) (float64, error) {
	s, err := adoptSchedule(g, s)
	if err != nil {
		return 0, err
	}
	prof := e.newProfiler()
	var total float64
	for i, st := range s.Stages {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("ios: measure cancelled at stage %d/%d: %w", i+1, len(s.Stages), err)
		}
		lat, err := prof.MeasureStage(st)
		if err != nil {
			return 0, err
		}
		total += lat
	}
	return total, nil
}

// Throughput returns images/second for the schedule at the graph's batch
// size on the engine's device.
func (e *Engine) Throughput(ctx context.Context, g *Graph, s *Schedule) (float64, error) {
	lat, err := e.Measure(ctx, g, s)
	if err != nil {
		return 0, err
	}
	if lat == 0 {
		return 0, nil
	}
	return float64(g.Batch()) / lat, nil
}

// adoptSchedule returns a schedule bound to g, verifying — rather than
// assuming — that the stages reference g's own nodes when the schedule
// was built against a different Schedule.Graph value. The cross-batch
// case gets its own diagnosis: node-identity checks alone would report a
// generic "different graph" for a schedule optimized at another batch
// size of the same architecture, hiding the actual mistake.
func adoptSchedule(g *Graph, s *Schedule) (*Schedule, error) {
	if s.Graph == g {
		return s, nil
	}
	if s.Graph != nil {
		if sb, gb := s.Graph.Batch(), g.Batch(); sb != gb {
			return nil, fmt.Errorf(
				"ios: schedule was optimized at batch %d but graph %q is built at batch %d (schedules are batch-specialized; optimize per batch — see Engine.OptimizeBatches — instead of reusing one across batches)",
				sb, g.Name, gb)
		}
	}
	for si, st := range s.Stages {
		for _, grp := range st.Groups {
			for _, n := range grp {
				if n.ID >= len(g.Nodes) || g.Nodes[n.ID] != n {
					return nil, fmt.Errorf(
						"ios: schedule stage %d references node %q of a different graph (schedules are graph-specific; rebuild or reload the schedule for %q)",
						si+1, n.Name, g.Name)
				}
			}
		}
	}
	return &schedule.Schedule{Graph: g, Stages: s.Stages}, nil
}
