package ios

import (
	"context"
	"fmt"

	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/measure"
	"ios/internal/plan"
	"ios/internal/profile"
	"ios/internal/schedule"
	"ios/internal/serve"
)

// BlockCache is a whole-block schedule cache: a concurrent,
// deduplicating map from a canonical structural block fingerprint —
// computed from the block's DAG, its operators' lowered kernel programs,
// the device model, and the search options, invariant to node identity
// and graph position — to the completed schedule the DP produced for that
// structure. Every Engine and server owns one (WithBlockCache or
// ServerConfig.BlockCache shares one); it persists across Optimize calls
// and is shared by every concurrent search, so a repeated cell (NasNet
// stacks ~18 near-identical ones) pays one DP search instead of one per
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

// Progress is one search-progress snapshot, delivered to the callback
// installed with WithProgress at every level barrier of the DP engine.
// See the core package for field semantics.
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
// -safe handle configured once (device, measurement backend, caches,
// progress reporting) whose methods all take a context.Context and honor
// its cancellation and deadline:
//
//	eng := ios.NewEngine(ios.V100)
//	res, err := eng.Optimize(ctx, g, ios.Options{})
//	lat, err := eng.Measure(ctx, g, res.Schedule)
//
// Search options are set per call, through Options. A cancelled Optimize
// drains its worker pool promptly, discards partial results, and returns
// the wrapped ctx.Err() (errors.Is with context.Canceled /
// context.DeadlineExceeded holds).
//
// An engine owns a block cache, private unless WithBlockCache shares one,
// and a private memo of stage measurements that no caller sees: a search
// measures each distinct stage structure once, and Measure is the one
// public way to price a schedule. Methods may be called from multiple
// goroutines: each call forks its own profiler (sharing the engine's
// device model, memo and block cache), and concurrent or repeated
// searches of the same block structure coalesce into one search in the
// block cache.
type Engine struct {
	backend  Backend
	progress func(Progress)
	bcache   *blockcache.Cache
	prof     *profile.Profiler
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

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

// WithBlockCache makes the engine look block searches up in c, which it
// shares with every engine and server given the same cache. Block
// searches are deduplicated by the block's canonical structural
// fingerprint, concurrent searches of one structure coalescing into one;
// results are bit-identical with any cache, only the number of block
// searches drops (see BlockCache). nil keeps the engine's fresh private
// cache, bounded at serve's DefaultBlockCacheSize.
func WithBlockCache(c *BlockCache) EngineOption { return func(e *Engine) { e.bcache = c } }

// NewEngine returns an Engine for the device, configured by the options.
func NewEngine(dev Device, opts ...EngineOption) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	if e.backend == nil {
		e.backend = profile.SimBackend(dev)
	}
	if e.bcache == nil {
		e.bcache = blockcache.NewCacheSize(serve.DefaultBlockCacheSize)
	}
	e.prof = profile.NewWithBackend(e.backend, profile.Options{})
	e.prof.SetMeasureCache(measure.NewCacheSize(serve.DefaultMeasureCacheSize))
	return e
}

// Device returns the device the engine optimizes for.
func (e *Engine) Device() Device { return e.backend.Spec() }

// BlockCacheStats reports the engine's block-cache traffic counters.
func (e *Engine) BlockCacheStats() BlockCacheStats { return e.bcache.Stats() }

// withBlockCache attaches the engine's block cache to per-call options
// that do not bring their own.
func (e *Engine) withBlockCache(opts Options) Options {
	if opts.BlockCache() == nil {
		opts = opts.WithBlockCache(e.bcache)
	}
	return opts
}

// Optimize runs the IOS dynamic program on the graph under ctx and
// returns the best schedule found together with search statistics. With
// a pre-cancelled context it returns immediately without measuring a
// single stage; cancelled mid-search, it drains all workers and returns
// the wrapped ctx.Err(). The profiler is a fork of the engine's root: it
// shares the device model and the measurement memo, and lowers the graph
// into its own table, so concurrent calls share nothing unsynchronized.
func (e *Engine) Optimize(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return core.OptimizeWithProgress(ctx, g, e.prof.Fork(), e.withBlockCache(opts), e.progress)
}

// OptimizeBatches runs a batch-specialization sweep under ctx: one IOS
// search per batch size under opts, in order (the graph is rebuilt per
// batch with Graph.WithBatch), then the measured cross-batch latency
// matrix — every specialized schedule transferred onto every other
// batch's graph, reproducing the shape of the paper's Table 3. The sweep
// runs on the engine's caches, so structure repeated across batches and
// cross-measurements is simulated once.
//
// The resulting BatchPlan answers both planning questions: which schedule
// to serve at a batch (Route, used by the serving tier's nearest-batch
// routing) and what reusing a schedule off its planned batch costs
// (Penalty/EstimatePenalty). Plans persist with BatchPlan.Save/SaveFile
// and reload with LoadBatchPlan.
func (e *Engine) OptimizeBatches(ctx context.Context, g *Graph, batches []int, opts Options) (*BatchPlan, error) {
	return plan.Build(ctx, plan.BuildConfig{
		Graph:       g,
		Batches:     batches,
		Device:      e.backend.Spec().Name,
		Opts:        e.withBlockCache(opts),
		NewProfiler: e.prof.Fork,
		Progress:    e.progress,
	})
}

// Measure returns the end-to-end latency in seconds of executing the
// schedule on the engine's device, checking ctx between stages. A
// schedule built for a different graph is not silently re-wrapped: it
// must validate as a schedule of g, or Measure fails with a descriptive
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
	prof := e.prof.Fork()
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
// assuming — that the stages schedule g (Schedule.Validate) when the
// schedule was built against a different Schedule.Graph value. The
// cross-batch case gets its own diagnosis: the node checks alone would
// report a generic "different graph" for a schedule optimized at another
// batch size of the same architecture, hiding the actual mistake.
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
	out := &schedule.Schedule{Graph: g, Stages: s.Stages}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("ios: schedule does not fit graph %q; is it of a different graph? (schedules are graph-specific; rebuild or reload it for %q): %w", g.Name, g.Name, err)
	}
	return out, nil
}
