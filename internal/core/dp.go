package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ios/internal/bitset"
	"ios/internal/blockcache"
	"ios/internal/graph"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// Stats reports the cost of one optimization run — the quantities the
// paper tracks for Table 1 and the Figure 9 search-cost axis.
type Stats struct {
	// Blocks is the number of blocks optimized.
	Blocks int
	// States is the number of distinct DP states (subsets S) visited.
	States int
	// Transitions is the number of (S, S') pairs examined — line 17 of
	// Algorithm 1, the paper's #(S, S').
	Transitions int
	// Measurements is the number of simulator stage measurements
	// performed (cache misses in the profiler). On the simulator the search
	// never measures an ending whose lower bound already loses (see
	// engine.go), so this is at most what Algorithm 1, which measures every
	// ending it meets, would run — and the same at every worker count.
	Measurements int
	// WallTime is the optimization time.
	WallTime time.Duration
}

// Result bundles an optimized schedule with its search statistics.
type Result struct {
	Schedule *schedule.Schedule
	Stats    Stats
}

// OptimizeContext runs IOS over the whole graph: partitions it into
// blocks, finds the optimal schedule for each block with the DP, and
// concatenates the per-block stage lists. The search checks ctx before
// any measurement and at every level barrier of each block's DP engine,
// and every engine worker observes cancellation before each transition it
// costs — so a cancelled search drains promptly (bounded by one in-flight
// stage measurement per worker, however many endings the state it is in
// has left), discards all partial results, and returns ctx.Err() wrapped
// (errors.Is(err, context.Canceled) / context.DeadlineExceeded hold). The
// context never changes what an uncancelled run returns.
func OptimizeContext(ctx context.Context, g *graph.Graph, prof *profile.Profiler, opts Options) (*Result, error) {
	return OptimizeWithProgress(ctx, g, prof, opts, nil)
}

// OptimizeWithProgress is OptimizeContext with a progress callback:
// progress, when non-nil, receives a Progress snapshot at every level
// barrier of the DP engine. The callback is never invoked concurrently
// and runs on the search's critical path, so it should return quickly.
// Like Options.Workers it is a pure execution knob — it never changes
// what the search returns. (It is a parameter rather than an Options
// field so Options stays a comparable struct.)
func OptimizeWithProgress(ctx context.Context, g *graph.Graph, prof *profile.Profiler, opts Options, progress func(Progress)) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.Canonical()
	// Wall-clock telemetry only: WallTime never feeds schedules, costs or cache keys.
	start := time.Now()
	// Refuse a dead context before the first simulator invocation: a
	// pre-cancelled search must not measure a single stage.
	if err := ctx.Err(); err != nil {
		return nil, wrapCancelled(err)
	}
	m0 := prof.Measurements
	blocks, err := g.Partition(opts.MaxBlockOps)
	if err != nil {
		return nil, err
	}
	opts.tracker = newProgressTracker(progress, len(blocks))
	// Lowering and solo durations are pure per node; compute them once on
	// the root so every searcher's fork (and its workers) shares the table
	// instead of re-lowering its slice of the graph. The solo simulations
	// are counted here instead of lazily inside each block's serial-tail
	// evaluation; the totals are identical.
	prof.Prelower(g.SchedulableNodes())
	sched := &schedule.Schedule{Graph: g}
	stats := Stats{Blocks: len(blocks)}

	// Blocks are independent subproblems; search them in parallel, each
	// searcher on one fork of the profiler (same device model, the root's
	// lowering table, a private simulator) and one pooled scratch, both reused
	// from block to block — a block-cache hit allocates neither — and the
	// scratch back in the pool before wg.Wait returns. Results are
	// deterministic regardless of interleaving.
	type blockOut struct {
		stages []schedule.Stage
		stats  Stats
		err    error
	}
	outs := make([]blockOut, len(blocks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := min(runtime.GOMAXPROCS(0), len(blocks)); s > 0; s-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc, sp := scratches.Get().(*scratch), prof.Fork()
			defer sc.release()
			for {
				i := int(next.Add(1) - 1)
				// A cancelled search's outs are never read (see below).
				if i >= len(blocks) || ctx.Err() != nil {
					return
				}
				stages, bstats, err := searchBlock(ctx, blocks[i], sp, opts, sc)
				outs[i] = blockOut{stages: stages, stats: bstats, err: err}
			}
		}()
	}
	wg.Wait()
	// A cancelled search reports the cancellation, not whichever block
	// error the goroutine interleaving happened to surface first: partial
	// results are discarded deterministically.
	if err := ctx.Err(); err != nil {
		return nil, wrapCancelled(err)
	}
	for i, out := range outs {
		if out.err != nil {
			return nil, fmt.Errorf("core: block %d: %w", blocks[i].Index, out.err)
		}
		sched.Stages = append(sched.Stages, out.stages...)
		stats.States += out.stats.States
		stats.Transitions += out.stats.Transitions
		stats.Measurements += out.stats.Measurements
	}
	stats.Measurements += prof.Measurements - m0
	stats.WallTime = time.Since(start)
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("core: produced invalid schedule: %w", err)
	}
	return &Result{Schedule: sched, Stats: stats}, nil
}

// wrapCancelled wraps a context error so callers can both errors.Is it
// and see where the search stopped.
func wrapCancelled(err error) error {
	return fmt.Errorf("core: search cancelled: %w", err)
}

// choice records the last stage of the optimal schedule of a state
// (Algorithm 1's choice[S]).
type choice struct {
	ending   bitset.Set
	strategy schedule.Strategy
	// serial marks the serial-tail candidate: the whole ending executes
	// as one group on a single stream (see the engine's serial-tail
	// candidate).
	serial bool
}

// OptimizeBlockContext runs the dynamic program on a single block and
// returns its stage list. Exposed for experiments that study one block
// (Table 1, Figure 9, Figure 10). Cancellation is observed at every level
// barrier and by every engine worker before each transition, partial
// results are discarded, and the wrapped ctx.Err() is returned (see
// OptimizeContext).
//
// The search is the level-synchronous bottom-up engine of engine.go,
// parallel across opts.Workers goroutines; its costs, schedules, states and
// transitions are identical to the original memoized recursion (retained in
// dp_reference_test.go as the oracle the property tests compare against)
// for any worker count, and its measurements at most the recursion's.
//
// When a whole-block schedule cache is attached (Options.WithBlockCache),
// the block's canonical structural fingerprint is consulted first: a hit
// rebinds the cached schedule onto this block's nodes without running the
// search, a miss claims the fingerprint (concurrent searches of the same
// structure wait for this one) and publishes the result on success, and a
// hit whose entry blockcache.Rebind refuses claims the fingerprint back
// and publishes the result in the entry's place. A search that fails or is
// cancelled abandons its claim so the fingerprint stays searchable.
func OptimizeBlockContext(ctx context.Context, b *graph.Block, prof *profile.Profiler, opts Options) ([]schedule.Stage, Stats, error) {
	sc := scratches.Get().(*scratch)
	defer sc.release()
	return searchBlock(ctx, b, prof, opts, sc)
}

// searchBlock is OptimizeBlockContext over the caller's scratch (see scratch).
func searchBlock(ctx context.Context, b *graph.Block, prof *profile.Profiler, opts Options, sc *scratch) ([]schedule.Stage, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	opts = opts.Canonical()
	if b.All().IsEmpty() {
		return nil, Stats{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, wrapCancelled(err)
	}
	m0 := prof.Measurements

	var claim *blockcache.Claim
	if bc := opts.blockCache; bc != nil {
		sc.key = blockcache.AppendFingerprint(sc.key[:0], b, prof, opts.Fingerprint())
		ent, cl, err := bc.GetOrBegin(ctx.Done(), sc.key)
		for err == nil && cl == nil {
			if stages, rerr := blockcache.Rebind(b, ent); rerr == nil {
				// Keep the progress stream's cumulative counters in sync
				// with the final Stats, which include the recorded cost.
				opts.tracker.emit(b.Index+1, len(b.Nodes), "cached", len(b.Nodes),
					ent.States, ent.Transitions, 0)
				stats := Stats{States: ent.States, Transitions: ent.Transitions,
					Measurements: prof.Measurements - m0}
				return stages, stats, nil
			}
			// An entry Rebind refuses — its stages break the rules of
			// schedule.CheckStages on this block, as a corrupt file or
			// peer can make them — is taken back: the block is searched
			// locally under a claim, and the result replaces the entry
			// for the waiters and every later hit.
			ent, cl, err = bc.ReplaceOrBegin(ctx.Done(), sc.key, ent)
		}
		if err != nil {
			return nil, Stats{}, wrapCancelled(ctx.Err())
		}
		claim = cl
	}
	committed := false
	if claim != nil {
		// An error, a cancellation, or a panicking backend must not leave
		// the claimed fingerprint wedged for every future requester of a
		// shared cache: abandon so waiters retry and the key stays
		// searchable.
		defer func() {
			if !committed {
				claim.Abandon()
			}
		}()
	}

	e := newEngine(b, prof, opts, sc)
	stages, stats, err := e.run(ctx)
	e.close()
	stats.Measurements = prof.Measurements - m0
	if err != nil {
		return nil, stats, err
	}
	if claim != nil {
		if cs, cerr := blockcache.Canonicalize(b, stages); cerr == nil {
			claim.Commit(&blockcache.Entry{
				Ops:    len(b.Nodes),
				Stages: cs,
				States: stats.States, Transitions: stats.Transitions,
			})
			committed = true
		}
	}
	return stages, stats, nil
}
