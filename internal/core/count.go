package core

import (
	"math"

	"ios/internal/bitset"
	"ios/internal/graph"
)

// Complexity quantities for Table 1: for a block with n operators and
// width d, the paper reports the theoretical transition bound
// C(n/d+2, 2)^d, the real number of transitions #(S, S'), and the total
// number of feasible schedules.

// Complexity summarizes the search space of one block.
type Complexity struct {
	// N is the number of operators in the block.
	N int
	// D is the block's width (largest antichain).
	D int
	// Bound is the theoretical upper bound C(n/d+2, 2)^d on transitions.
	Bound float64
	// Transitions is the exact number of (S, S') pairs the unpruned DP
	// examines.
	Transitions int64
	// Schedules is the exact number of feasible stage partitions
	// (counting stage sets, as the paper's #Schedules column does),
	// reported as float64 because it overflows uint64 for RandWire.
	Schedules float64
}

// AnalyzeBlock computes the Table 1 row for a block. It runs the same
// ending enumeration as the DP but with pure counting (no measurements),
// and without pruning.
func AnalyzeBlock(b *graph.Block) Complexity {
	n := len(b.Nodes)
	c := Complexity{N: n, D: b.Width()}
	if n == 0 {
		return c
	}
	c.Bound = transitionBound(n, c.D)

	schedules := make(map[bitset.Set]float64)
	var countSchedules func(s bitset.Set) float64
	countSchedules = func(s bitset.Set) float64 {
		if s.IsEmpty() {
			return 1
		}
		if v, ok := schedules[s]; ok {
			return v
		}
		var total float64
		forEachEnding(b, s, Pruning{}, func(ending bitset.Set, _ []bitset.Set) bool {
			c.Transitions++
			total += countSchedules(s.Diff(ending))
			return true
		})
		schedules[s] = total
		return total
	}
	c.Schedules = countSchedules(b.All())
	return c
}

// transitionBound evaluates C(n/d+2, 2)^d with the real-valued n/d the
// paper uses.
func transitionBound(n, d int) float64 {
	if d <= 0 {
		return 0
	}
	x := float64(n)/float64(d) + 2
	perChain := x * (x - 1) / 2
	return math.Pow(perChain, float64(d))
}

// HardestBlock partitions the graph and returns its hardest block — the
// one with the largest theoretical transition bound (ties broken by
// operator count) — or nil for an empty graph. This is the block Table 1
// analyzes and the search-cost benchmarks time.
func HardestBlock(g *graph.Graph) (*graph.Block, error) {
	blocks, err := g.Partition(0)
	if err != nil {
		return nil, err
	}
	var best *graph.Block
	bestBound := -1.0
	for _, b := range blocks {
		bound := transitionBound(len(b.Nodes), b.Width())
		if bound > bestBound || (bound == bestBound && best != nil && len(b.Nodes) > len(best.Nodes)) {
			best, bestBound = b, bound
		}
	}
	return best, nil
}

// AnalyzeLargestBlock returns the Complexity of the graph's hardest block
// as Table 1 lists per network.
func AnalyzeLargestBlock(g *graph.Graph) (Complexity, error) {
	best, err := HardestBlock(g)
	if err != nil {
		return Complexity{}, err
	}
	if best == nil {
		return Complexity{}, nil
	}
	return AnalyzeBlock(best), nil
}
