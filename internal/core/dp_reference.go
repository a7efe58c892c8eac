package core

// The original single-threaded implementation of Algorithm 1: a memoized
// top-down recursion over endings. The production path is the
// level-synchronous engine in engine.go, which computes the identical
// program; this version is retained verbatim as the independent oracle
// the property and zoo equivalence tests compare the engine against —
// costs, schedules, states and transitions must coincide bit-exactly, and
// the engine, which skips endings whose lower bound already loses, may
// measure fewer stages than this recursion does, never more.

import (
	"fmt"
	"math"

	"ios/internal/bitset"
	"ios/internal/graph"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// stageResult memoizes GENERATESTAGE per ending within a block, keyed by
// the ending bitmask — far cheaper than the profiler's name-keyed cache on
// the DP's hot path (the same ending is examined from many states).
type stageResult struct {
	lat      float64
	strategy schedule.Strategy
	ok       bool
}

// refScheduler carries the reference DP state for one block.
type refScheduler struct {
	b      *graph.Block
	prof   *profile.Profiler
	opts   Options
	cost   map[bitset.Set]float64
	last   map[bitset.Set]choice
	stages map[bitset.Set]stageResult
	stats  Stats
}

// optimizeBlockReference runs the reference dynamic program on a single
// block. Test oracle only; use OptimizeBlockContext.
func optimizeBlockReference(b *graph.Block, prof *profile.Profiler, opts Options) ([]schedule.Stage, Stats, error) {
	opts = opts.withDefaults()
	bs := &refScheduler{
		b: b, prof: prof, opts: opts,
		cost:   make(map[bitset.Set]float64),
		last:   make(map[bitset.Set]choice),
		stages: make(map[bitset.Set]stageResult),
	}
	all := b.All()
	if all.IsEmpty() {
		return nil, bs.stats, nil
	}
	if _, err := bs.scheduler(all); err != nil {
		return nil, bs.stats, err
	}
	// Schedule construction (Algorithm 1 L6-11): walk choice[] backwards
	// from the full set, prepending stages.
	var rev []schedule.Stage
	for s := all; !s.IsEmpty(); {
		c, ok := bs.last[s]
		if !ok {
			return nil, bs.stats, fmt.Errorf("no feasible schedule for state %v (over-restrictive strategy set?)", s)
		}
		rev = append(rev, bs.buildStage(c))
		s = s.Diff(c.ending)
	}
	stages := make([]schedule.Stage, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		stages = append(stages, rev[i])
	}
	return stages, bs.stats, nil
}

// scheduler is Algorithm 1's SCHEDULER: the memoized recursion
// cost[S] = min over endings S' of cost[S−S'] + stage_latency[S'].
func (bs *refScheduler) scheduler(s bitset.Set) (float64, error) {
	if s.IsEmpty() {
		return 0, nil
	}
	if v, ok := bs.cost[s]; ok {
		return v, nil
	}
	bs.stats.States++
	best := math.Inf(1)
	var bestChoice choice
	var firstErr error

	// Serial-tail candidate: close the whole remaining suffix as one
	// stage whose single group runs every operator back-to-back on one
	// stream (see engine.go for the admissibility rationale).
	bs.stats.Transitions++
	if lat := bs.prof.MeasureSerialChain(bs.nodesOf(s)); lat < best {
		best = lat
		bestChoice = choice{ending: s, strategy: schedule.Concurrent, serial: true}
	}

	forEachEnding(bs.b, s, bs.opts.Pruning, func(ending bitset.Set, _ []bitset.Set) bool {
		bs.stats.Transitions++
		lat, strat, ok, err := bs.generateStage(ending)
		if err != nil {
			firstErr = err
			return false
		}
		if !ok {
			return true // infeasible under the strategy restriction
		}
		sub, err := bs.scheduler(s.Diff(ending))
		if err != nil {
			firstErr = err
			return false
		}
		if total := sub + lat; total < best {
			best = total
			bestChoice = choice{ending: ending, strategy: strat}
		}
		return true
	})
	if firstErr != nil {
		return 0, firstErr
	}
	if !math.IsInf(best, 1) {
		bs.cost[s] = best
		bs.last[s] = bestChoice
	}
	return best, nil
}

// generateStage is Algorithm 1's GENERATESTAGE: choose the better
// parallelization strategy for the candidate stage and return its
// measured latency. ok=false means the stage is infeasible under the
// configured StrategySet. Note the deliberate inefficiency kept for
// oracle independence: the groups are re-derived from scratch with
// groupsOf's BFS here and again in buildStage.
func (bs *refScheduler) generateStage(ending bitset.Set) (lat float64, strat schedule.Strategy, ok bool, err error) {
	if r, hit := bs.stages[ending]; hit {
		return r.lat, r.strategy, r.ok, nil
	}
	defer func() {
		if err == nil {
			bs.stages[ending] = stageResult{lat: lat, strategy: strat, ok: ok}
		}
	}()
	nodes := bs.nodesOf(ending)
	groups := bs.groupNodes(ending)

	concurrentAllowed := bs.opts.Strategies != MergeOnly || len(groups) == 1
	mergeAllowed := bs.opts.Strategies != ParallelOnly && schedule.CanMerge(nodes)

	lConc, lMerge := math.Inf(1), math.Inf(1)
	if concurrentAllowed {
		st := schedule.Stage{Strategy: schedule.Concurrent, Groups: groups}
		lConc, err = bs.prof.MeasureStage(st)
		if err != nil {
			return 0, 0, false, err
		}
	}
	if mergeAllowed {
		st := schedule.Stage{Strategy: schedule.Merge, Groups: [][]*graph.Node{nodes}}
		lMerge, err = bs.prof.MeasureStage(st)
		if err != nil {
			return 0, 0, false, err
		}
	}
	switch {
	case math.IsInf(lConc, 1) && math.IsInf(lMerge, 1):
		return 0, 0, false, nil
	case lConc <= lMerge:
		return lConc, schedule.Concurrent, true, nil
	default:
		return lMerge, schedule.Merge, true, nil
	}
}

// buildStage materializes a schedule stage from a DP choice.
func (bs *refScheduler) buildStage(c choice) schedule.Stage {
	switch {
	case c.serial:
		return schedule.Stage{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{bs.nodesOf(c.ending)}}
	case c.strategy == schedule.Merge:
		return schedule.Stage{Strategy: schedule.Merge, Groups: [][]*graph.Node{bs.nodesOf(c.ending)}}
	default:
		return schedule.Stage{Strategy: schedule.Concurrent, Groups: bs.groupNodes(c.ending)}
	}
}

// nodesOf converts a block-local bitset to nodes in topological order.
func (bs *refScheduler) nodesOf(s bitset.Set) []*graph.Node {
	nodes := make([]*graph.Node, 0, s.Len())
	s.ForEach(func(e int) bool {
		nodes = append(nodes, bs.b.Nodes[e])
		return true
	})
	return nodes
}

// groupNodes converts an ending to its connected-component groups of
// nodes.
func (bs *refScheduler) groupNodes(ending bitset.Set) [][]*graph.Node {
	sets := groupsOf(bs.b, ending)
	groups := make([][]*graph.Node, len(sets))
	for i, gs := range sets {
		groups[i] = bs.nodesOf(gs)
	}
	return groups
}
