// Package core implements the Inter-Operator Scheduler — the paper's
// primary contribution (Algorithm 1). It finds, per block of a computation
// graph, the latency-optimal partition into stages by dynamic programming
// over "endings": for operator set S, cost[S] = min over endings S' of S of
// cost[S−S'] + stage_latency[S'], where an ending is a subset with no edge
// leaving it into the remainder (Section 4.1). stage_latency is obtained by
// direct measurement on the execution substrate via internal/profile, and
// GENERATESTAGE picks the cheaper of the two parallelization strategies
// ("concurrent execution" vs "operator merge") for each candidate stage.
package core

import (
	"fmt"
	"runtime"
	"strings"

	"ios/internal/blockcache"
)

// StrategySet selects which parallelization strategies GENERATESTAGE may
// use, matching the paper's IOS-Parallel / IOS-Merge / IOS-Both variants
// (Section 6.1).
type StrategySet int

const (
	// Both considers concurrent execution and operator merge (IOS-Both,
	// the default "IOS" in the paper).
	Both StrategySet = iota
	// ParallelOnly considers only concurrent execution (IOS-Parallel).
	ParallelOnly
	// MergeOnly considers only operator merge (IOS-Merge). Stages that
	// cannot merge are restricted to a single operator, which degenerates
	// to the sequential schedule when no merge opportunities exist —
	// exactly the paper's observation on RandWire/NasNet.
	MergeOnly
)

// String names the strategy set like the paper's figure legends.
func (s StrategySet) String() string {
	switch s {
	case ParallelOnly:
		return "IOS-Parallel"
	case MergeOnly:
		return "IOS-Merge"
	default:
		return "IOS-Both"
	}
}

// ParseStrategySet maps a strategy name to its StrategySet. It accepts the
// short CLI spellings ("both", "parallel", "merge") and the paper's figure
// legends ("IOS-Both", ...), case-insensitively; the empty string selects
// the default (Both).
func ParseStrategySet(name string) (StrategySet, error) {
	switch strings.ToLower(name) {
	case "", "both", "ios-both":
		return Both, nil
	case "parallel", "ios-parallel":
		return ParallelOnly, nil
	case "merge", "ios-merge":
		return MergeOnly, nil
	}
	return Both, fmt.Errorf("core: unknown strategy set %q (want both, parallel, or merge)", name)
}

// Pruning is the schedule-pruning strategy P of Section 4.3: an ending S'
// satisfies P iff it has at most S groups and each group has at most R
// operators. The paper's default is r=3, s=8.
//
// Bound convention (the single authoritative statement — everything else
// refers here): a positive bound limits the dimension; 0 means "unset",
// which makes the zero-value Pruning select the paper defaults (r=3,
// s=8); -1 means "explicitly unbounded" in that dimension. The -1
// spelling exists because Pruning{} and an all-zero "no pruning" request
// would otherwise be indistinguishable — Options{Pruning: Pruning{}} IS
// the zero value and therefore selects the defaults. Request the
// exhaustive search with the Unpruned options value (R=-1, S=-1).
// Values below -1 are invalid; Options.Validate rejects them.
type Pruning struct {
	// R bounds operators per group (see the bound convention above).
	R int
	// S bounds groups per stage (see the bound convention above).
	S int
}

// DefaultPruning is the paper's evaluation setting (r = 3, s = 8).
var DefaultPruning = Pruning{R: 3, S: 8}

// String renders "r=3,s=8" or "none". Non-positive bounds (see the bound
// convention on Pruning) both render as 0.
func (p Pruning) String() string {
	if p.R <= 0 && p.S <= 0 {
		return "none"
	}
	return fmt.Sprintf("r=%d,s=%d", max(p.R, 0), max(p.S, 0))
}

// maxStageOps returns the largest stage size admissible under the pruning,
// used to cut the ending enumeration early. Non-positive bounds are
// unbounded.
func (p Pruning) maxStageOps() int {
	if p.R <= 0 || p.S <= 0 {
		return 1 << 30
	}
	return p.R * p.S
}

// Options configures a search. No request and no schedule file carries
// it: a server searches under its own configured Options, and its answers
// name them by Fingerprint.
type Options struct {
	// Strategies selects the IOS variant (default Both).
	Strategies StrategySet
	// Pruning bounds the ending enumeration (the zero value is the paper
	// default r=3, s=8; use Unpruned for the exhaustive search).
	Pruning Pruning
	// MaxBlockOps caps the block partition size (0 = bitset limit).
	MaxBlockOps int
	// Workers caps the per-block DP engine's worker pool (goroutines with
	// private simulators processing one cardinality level's states in
	// parallel). 0 or negative means GOMAXPROCS; the engine additionally
	// caps the pool at the block's operator count and runs small blocks on
	// one worker. Workers is an execution knob, not a search-space knob: the
	// engine produces bit-identical schedules, costs, and search
	// statistics at every setting, which is why Fingerprint deliberately
	// excludes it (cached schedules are shared across worker counts).
	Workers int

	// tracker is the shared cross-block progress aggregator, installed by
	// OptimizeWithProgress so parallel block searches feed one monotonic
	// counter set. Progress deliberately lives outside the exported
	// fields (see OptimizeWithProgress): a func field would make Options
	// non-comparable, a silent API break for code using == or map keys.
	tracker *progressTracker

	// blockCache, when non-nil, is the shared whole-block schedule cache
	// consulted before every block DP search (see WithBlockCache). Like
	// tracker it is a pure execution knob living outside the exported
	// fields — a pointer keeps Options comparable, and Fingerprint
	// deliberately excludes it: cached schedules are exact search outputs,
	// so results are bit-identical with the cache on or off.
	blockCache *blockcache.Cache
}

// WithBlockCache returns the options with a shared whole-block schedule
// cache attached: every search consults it before launching a
// block's DP search, keyed by the block's canonical structural fingerprint
// (blockcache.Fingerprint), and fill it with the search result on a miss.
// Concurrent searches of the same structure coalesce into one. Cached
// schedules are rebound onto the requesting block's nodes and are
// bit-identical to what the search would have produced; a hit reports the
// entry's recorded States and Transitions as its search cost, so
// statistics stay comparable across cached and uncached runs, while
// Measurements always counts actual simulator invocations. nil detaches.
func (o Options) WithBlockCache(c *blockcache.Cache) Options {
	o.blockCache = c
	return o
}

// BlockCache returns the attached whole-block schedule cache (nil if
// none).
func (o Options) BlockCache() *blockcache.Cache { return o.blockCache }

// Validate reports whether the options are well-formed: pruning bounds
// must be positive, 0 (unset), or -1 (explicitly unbounded — see the
// bound convention on Pruning), and MaxBlockOps must be non-negative.
// A search validates implicitly; call Validate directly to surface
// configuration errors before starting a search (e.g. when parsing
// user-supplied requests).
func (o Options) Validate() error {
	if o.Pruning.R < -1 {
		return fmt.Errorf("core: invalid pruning bound R=%d (positive, 0 = paper default, or -1 = explicitly unbounded)", o.Pruning.R)
	}
	if o.Pruning.S < -1 {
		return fmt.Errorf("core: invalid pruning bound S=%d (positive, 0 = paper default, or -1 = explicitly unbounded)", o.Pruning.S)
	}
	if o.MaxBlockOps < 0 {
		return fmt.Errorf("core: invalid MaxBlockOps=%d (0 = bitset limit, positive = cap)", o.MaxBlockOps)
	}
	return nil
}

// Canonical returns the options as a search will interpret them: a zero
// Pruning becomes the paper defaults. It is idempotent: explicit unbounded
// bounds stay -1 (not normalized to 0, which a second application would
// re-default), and every consumer of Pruning treats non-positive bounds
// as unbounded. Two Options with the same Canonical form produce
// identical searches; for a normalized identity string — under which all
// "unbounded" spellings collapse — use Fingerprint, which is what
// schedule caches key on.
func (o Options) Canonical() Options {
	if o.Pruning == (Pruning{}) {
		o.Pruning = DefaultPruning
	}
	return o
}

// effectiveWorkers resolves the Workers knob to a concrete pool size.
func (o Options) effectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Fingerprint renders the canonical options as a short stable string
// ("IOS-Both/r=3,s=8" or "IOS-Both/r=3,s=8/block=40"), suitable as a
// cache-key component. Workers is excluded: it changes how the search
// executes, never what it returns.
func (o Options) Fingerprint() string {
	c := o.Canonical()
	s := c.Strategies.String() + "/" + c.Pruning.String()
	if c.MaxBlockOps > 0 {
		s += fmt.Sprintf("/block=%d", c.MaxBlockOps)
	}
	return s
}

// Unpruned is the Options value for an exhaustive search: negative bounds
// mean "explicitly unbounded" (see the bound convention on Pruning).
var Unpruned = Options{Pruning: Pruning{R: -1, S: -1}}
