package core

import (
	"ios/internal/bitset"
	"ios/internal/graph"
)

// Ending enumeration (Section 4.1, Figure 4). An ending S' of operator set
// S is a non-empty subset such that every edge between S−S' and S' starts
// in S−S': equivalently, S' is closed under successors within S. The last
// stage of any schedule of S must be an ending of S.
//
// We enumerate endings by deciding membership for the operators of S in
// reverse topological order. Because an operator's successors come later
// in topological order, they are decided before it, so the closure
// constraint ("include u only if all of u's successors in S are included")
// is checkable locally, and every ending is produced exactly once.
//
// The recursion tracks the ending's group structure (connected components
// under intra-block edges) incrementally: including an operator merges it
// with every adjacent component. Components only grow as operators are
// added, so a component exceeding the pruning bound r prunes the whole
// subtree; the group-count bound s is checked at emission (components can
// still merge later, so it cannot prune subtrees soundly).
//
// The enumeration is the DP's innermost loop (one call per transition
// #(S, S')), so the enumerator keeps all of its working state in reusable
// scratch buffers: component merges are performed in place and undone on
// backtrack instead of copying the component list on every branch, and the
// finished component structure is handed to the callback so measuring a
// candidate stage never re-derives its groups with a BFS.

// endingFunc receives one ending together with its connected-component
// groups. groups is scratch owned by the enumerator: it is valid only for
// the duration of the call and its order is unspecified (sort or copy
// before retaining). Returning false stops the enumeration.
type endingFunc func(ending bitset.Set, groups []bitset.Set) bool

// enumerator carries the reusable scratch of one ending enumeration. The
// zero value is ready to use; a worker keeps one per goroutine and calls
// forEach once per DP state, amortizing all allocations away.
type enumerator struct {
	b      *graph.Block
	s      bitset.Set
	prune  Pruning
	maxOps int
	fn     endingFunc
	cont   bool

	elems  []int        // elements of s, ascending (= topological order)
	succIn []bitset.Set // per position: successors of elems[k] within s
	nbrs   []bitset.Set // per position: block neighbors of elems[k]
	solo   []float64    // per block operator: its solo duration (see forEach)
	comps  []bitset.Set // connected components of the current candidate
	sums   []float64    // sums[i]: comps[i]'s solo durations, summed
	class  []int32      // class[i]: classOf(comps[i]), or 0 with no classOf
	undo   []bitset.Set // stack of components displaced by in-place merges
	undoS  []float64    // and of their sums
	undoC  []int32      // and of their classes
	// classOf, when set, names a component for the stage memo (see
	// engineWorker.classOf); it is called once per component formed.
	classOf func(bitset.Set) int32
}

// forEach invokes fn for every ending S' of S that satisfies the pruning
// strategy P(S, S') of Section 4.3, in a deterministic order (fixed by the
// reverse-topological decision recursion, independent of scratch reuse).
// solo holds a number per block operator — the DP engine's solo durations —
// and while fn runs, en.sums[i] is the sum of those of groups[i]: merged and
// undone with the components, in an order fixed by the recursion too, so the
// engine's stage bound costs one read per group instead of a walk over the
// ending. So is en.class[i], groups[i]'s name under en.classOf, so the
// engine's stage-memo key costs one read per group too.
func (en *enumerator) forEach(b *graph.Block, s bitset.Set, prune Pruning, solo []float64, fn endingFunc) {
	en.b, en.s, en.prune, en.solo, en.fn = b, s, prune, solo, fn
	en.maxOps = prune.maxStageOps()
	en.cont = true
	en.elems = s.AppendElems(en.elems[:0])
	// Hoist the per-element set algebra out of the recursion: the
	// closure-under-successors test and the component-merge neighborhood
	// are fixed per (s, element), while the recursion visits each element
	// once per branch of the decision tree.
	en.succIn = en.succIn[:0]
	en.nbrs = en.nbrs[:0]
	for _, e := range en.elems {
		en.succIn = append(en.succIn, b.Succs(e).Intersect(s))
		en.nbrs = append(en.nbrs, b.Succs(e).Union(b.Preds(e)))
	}
	en.comps, en.sums, en.class = en.comps[:0], en.sums[:0], en.class[:0]
	en.undo, en.undoS, en.undoC = en.undo[:0], en.undoS[:0], en.undoC[:0]
	en.rec(len(en.elems)-1, bitset.Empty(), 0)
	en.fn, en.solo = nil, nil // do not pin the callback or the durations between calls
}

// rec decides membership of elems[k] and below; cur is the candidate so
// far with size elements. en.comps always holds cur's connected
// components (unordered).
func (en *enumerator) rec(k int, cur bitset.Set, size int) {
	if !en.cont {
		return
	}
	if k < 0 {
		if !cur.IsEmpty() && (en.prune.S <= 0 || len(en.comps) <= en.prune.S) {
			en.cont = en.fn(cur, en.comps)
		}
		return
	}
	e := en.elems[k]
	// Exclude e.
	en.rec(k-1, cur, size)
	if !en.cont {
		return
	}
	// Include e: allowed iff all successors of e within S are already
	// included (reverse-topological processing guarantees they have been
	// decided).
	if size >= en.maxOps || !en.succIn[k].SubsetOf(cur) {
		return
	}
	// Merge e with adjacent components in place: displaced components go
	// onto the undo stack and are restored (at the tail — component order
	// is immaterial) when the branch returns.
	nbrs := en.nbrs[k]
	merged, sum := bitset.Of(e), en.solo[e]
	displaced := 0
	for i := 0; i < len(en.comps); {
		if en.comps[i].Intersects(nbrs) {
			merged, sum = merged.Union(en.comps[i]), sum+en.sums[i]
			en.undo, en.undoS = append(en.undo, en.comps[i]), append(en.undoS, en.sums[i])
			en.undoC = append(en.undoC, en.class[i])
			displaced++
			en.remove(i)
			continue
		}
		i++
	}
	if en.prune.R > 0 && merged.Len() > en.prune.R {
		// The component can only grow further down this subtree; prune it
		// entirely (after restoring the displaced components).
		en.restore(displaced)
		return
	}
	var class int32
	if en.classOf != nil {
		class = en.classOf(merged)
	}
	en.comps, en.sums, en.class = append(en.comps, merged), append(en.sums, sum), append(en.class, class)
	en.rec(k-1, cur.Add(e), size+1)
	// Deeper include/undo cycles restore comps set-wise but may permute
	// it, so merged is not necessarily still at the tail; it is, however,
	// the unique component containing e.
	for i := len(en.comps) - 1; i >= 0; i-- {
		if en.comps[i].Has(e) {
			en.remove(i)
			break
		}
	}
	en.restore(displaced)
}

// remove deletes component i (and its sum and class), moving the last one
// into its place.
func (en *enumerator) remove(i int) {
	last := len(en.comps) - 1
	en.comps[i], en.sums[i], en.class[i] = en.comps[last], en.sums[last], en.class[last]
	en.comps, en.sums, en.class = en.comps[:last], en.sums[:last], en.class[:last]
}

// restore pops n displaced components and their sums and classes off the
// undo stacks back into comps, sums and class.
func (en *enumerator) restore(n int) {
	if n == 0 {
		return
	}
	top := len(en.undo) - n
	en.comps, en.sums = append(en.comps, en.undo[top:]...), append(en.sums, en.undoS[top:]...)
	en.class = append(en.class, en.undoC[top:]...)
	en.undo, en.undoS, en.undoC = en.undo[:top], en.undoS[:top], en.undoC[:top]
}

// forEachEnding is the convenience wrapper over a throwaway enumerator,
// used by the counting analyses and tests; the DP engine holds a reusable
// enumerator per worker instead, and the durations it sums.
func forEachEnding(b *graph.Block, s bitset.Set, prune Pruning, fn endingFunc) {
	var en enumerator
	en.forEach(b, s, prune, noSolo[:], fn)
}

// noSolo is what forEachEnding sums: nothing.
var noSolo [bitset.MaxElems]float64

// groupsOf splits an ending into its connected-component groups, each as a
// bitset, ordered by smallest element. The enumerator produces the same
// partition incrementally; this BFS derivation is retained as the
// independent oracle the property tests check the incremental groups
// against, and for callers that hold an ending without its enumeration
// context.
func groupsOf(b *graph.Block, ending bitset.Set) []bitset.Set {
	assigned := bitset.Empty()
	var groups []bitset.Set
	ending.ForEach(func(e int) bool {
		if assigned.Has(e) {
			return true
		}
		// BFS over intra-ending edges in both directions.
		comp := bitset.Of(e)
		frontier := bitset.Of(e)
		for !frontier.IsEmpty() {
			next := bitset.Empty()
			frontier.ForEach(func(x int) bool {
				nbrs := b.Succs(x).Union(b.Preds(x)).Intersect(ending).Diff(comp)
				next = next.Union(nbrs)
				return true
			})
			comp = comp.Union(next)
			frontier = next
		}
		assigned = assigned.Union(comp)
		groups = append(groups, comp)
		return true
	})
	return groups
}
