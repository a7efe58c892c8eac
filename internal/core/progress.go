package core

import (
	"sync"
)

// Progress is one search-progress snapshot, delivered to OptimizeWithProgress's callback
// at every level barrier of the DP engine. Snapshots from different blocks
// interleave when a graph search runs blocks in parallel, but the callback
// itself is never invoked concurrently (the tracker serializes emission),
// and the cumulative counters are monotonic across the whole search.
type Progress struct {
	// Block is the 1-based index of the block this snapshot comes from;
	// Blocks is the total block count of the search (1 for
	// OptimizeBlockContext).
	Block, Blocks int
	// Phase is the engine pass the block is in: "discover" (listing the
	// block's states — no ending is enumerated and nothing measured, so
	// the counters do not move and the snapshots only mark time),
	// "compute" (ending enumeration, stage measurement and cost
	// evaluation — all of the search's counted work), or "cached" (one
	// snapshot for a block answered from the block cache, carrying the
	// entry's recorded search cost).
	Phase string
	// Level is the cardinality level the block just finished; Levels is
	// the block's operator count (its highest level).
	Level, Levels int
	// States, Transitions, and Measurements are cumulative totals across
	// all blocks so far, matching the Stats fields of the final Result.
	// Measurements excludes the up-front lowering pass (the per-node solo
	// simulations a graph search runs before any block search starts).
	States, Transitions, Measurements int
}

// progressTracker aggregates per-level deltas from concurrently searched
// blocks and serializes delivery to the user callback. A nil tracker is
// inert, so the engine can call it unconditionally.
type progressTracker struct {
	mu     sync.Mutex
	fn     func(Progress)
	blocks int

	states, transitions, measurements int
}

// newProgressTracker returns a tracker for fn, or nil when fn is nil (no
// reporting requested).
func newProgressTracker(fn func(Progress), blocks int) *progressTracker {
	if fn == nil {
		return nil
	}
	return &progressTracker{fn: fn, blocks: blocks}
}

// emit folds one block level's deltas into the cumulative totals and
// delivers a snapshot. Safe for concurrent use by per-block goroutines.
func (t *progressTracker) emit(block, levels int, phase string, level, dStates, dTransitions, dMeasurements int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.states += dStates
	t.transitions += dTransitions
	t.measurements += dMeasurements
	p := Progress{
		Block: block, Blocks: t.blocks,
		Phase: phase, Level: level, Levels: levels,
		States: t.states, Transitions: t.transitions, Measurements: t.measurements,
	}
	fn := t.fn
	fn(p)
	t.mu.Unlock()
}
