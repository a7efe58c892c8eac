package blockcache

import (
	"encoding/binary"
	"fmt"

	"ios/internal/graph"
	"ios/internal/schedule"
)

// Stage is one stage of a cached block schedule in node-ID-free canonical
// form: the strategy plus the stage's group partition expressed as
// block-local operator indices. It is the schedule-IR Stage with node
// identity erased — what remains is exactly the structure the fingerprint
// guarantees to be shared.
type Stage struct {
	Strategy schedule.Strategy
	Groups   [][]int
}

// Entry is one completed block search: the canonical stage list plus the
// search statistics recorded when it ran. A cache hit returns the entry's
// recorded States and Transitions as the block's search cost — the same
// convention the serving tier's schedule cache uses — so cross-run search
// statistics stay comparable whether a block was searched or served;
// Measurements always reflects actual simulator invocations and so drops
// to zero on a warm block.
//
// Entries are shared between cache readers and must be treated as
// immutable; Rebind allocates fresh schedule stages on every call.
type Entry struct {
	// Ops is the operator count of the block the schedule covers,
	// recorded so persisted entries validate without their fingerprint
	// and rebinding can reject a mismatched block outright.
	Ops int
	// Stages is the block schedule over local indices.
	Stages []Stage
	// States and Transitions are the DP search cost that produced the
	// schedule (core.Stats conventions).
	States, Transitions int
}

// Canonicalize strips node identity from a block's completed stage list,
// producing the form Entry stores: every operator replaced by its
// block-local index. It fails if a stage mentions a node outside the
// block — such a schedule was not produced by a per-block search and must
// not be cached.
func Canonicalize(b *graph.Block, stages []schedule.Stage) ([]Stage, error) {
	out := make([]Stage, len(stages))
	for si, st := range stages {
		cs := Stage{Strategy: st.Strategy, Groups: make([][]int, len(st.Groups))}
		for gi, grp := range st.Groups {
			idx := make([]int, len(grp))
			for ni, n := range grp {
				if idx[ni] = b.LocalIndex(n); idx[ni] < 0 {
					return nil, fmt.Errorf("blockcache: stage %d references node %q outside block %d", si+1, n.Name, b.Index)
				}
			}
			cs.Groups[gi] = idx
		}
		out[si] = cs
	}
	return out, nil
}

// Rebind instantiates a cached entry's canonical stages onto a block's
// nodes — local index i becomes b.Nodes[i] — and checks them against the
// block by schedule.CheckStages, the rules Schedule.Validate applies to a
// graph: a corrupt, mismatched or ill-ordered entry yields an error
// (callers fall back to searching), never a schedule Validate refuses.
func Rebind(b *graph.Block, e *Entry) ([]schedule.Stage, error) {
	if e.Ops != len(b.Nodes) {
		return nil, fmt.Errorf("blockcache: entry covers %d ops, block %d has %d", e.Ops, b.Index, len(b.Nodes))
	}
	out, nodes := make([]schedule.Stage, len(e.Stages)), make([]*graph.Node, 0, e.Ops)
	for si, cs := range e.Stages {
		st := schedule.Stage{Strategy: cs.Strategy, Groups: make([][]*graph.Node, len(cs.Groups))}
		for gi, idx := range cs.Groups {
			from := len(nodes)
			for _, i := range idx {
				if i < 0 || i >= len(b.Nodes) {
					return nil, fmt.Errorf("blockcache: stage %d has operator index %d out of range [0,%d)", si+1, i, len(b.Nodes))
				}
				nodes = append(nodes, b.Nodes[i])
			}
			st.Groups[gi] = nodes[from:len(nodes):len(nodes)]
		}
		out[si] = st
	}
	if err := schedule.CheckStages(out, b.Nodes, b.LocalIndex); err != nil {
		return nil, fmt.Errorf("blockcache: block %d: %w", b.Index, err)
	}
	return out, nil
}

// validate checks an entry's internal consistency without a block, against
// its own Ops count: known strategies, non-empty groups, every operator
// index in range and scheduled once.
// Load applies it to every persisted entry before inserting any.
func (e *Entry) validate() error {
	if e.Ops < 1 {
		return fmt.Errorf("blockcache: entry covers %d ops", e.Ops)
	}
	if e.States < 0 || e.Transitions < 0 {
		return fmt.Errorf("blockcache: negative search statistics (%d states, %d transitions)", e.States, e.Transitions)
	}
	// Count before allocating: Ops is a file's or a peer's claim.
	covered := 0
	for _, cs := range e.Stages {
		for _, idx := range cs.Groups {
			covered += len(idx)
		}
	}
	if covered != e.Ops {
		return fmt.Errorf("blockcache: entry schedules %d of %d operators", covered, e.Ops)
	}
	seen := make([]bool, e.Ops)
	for si, cs := range e.Stages {
		if cs.Strategy != schedule.Concurrent && cs.Strategy != schedule.Merge {
			return fmt.Errorf("blockcache: stage %d has unknown strategy %d", si+1, int(cs.Strategy))
		}
		if len(cs.Groups) == 0 {
			return fmt.Errorf("blockcache: stage %d has no groups", si+1)
		}
		for gi, idx := range cs.Groups {
			if len(idx) == 0 {
				return fmt.Errorf("blockcache: stage %d group %d is empty", si+1, gi+1)
			}
			for _, i := range idx {
				if i < 0 || i >= e.Ops {
					return fmt.Errorf("blockcache: stage %d has operator index %d out of range [0,%d)", si+1, i, e.Ops)
				}
				if seen[i] {
					return fmt.Errorf("blockcache: operator index %d scheduled twice", i)
				}
				seen[i] = true
			}
		}
	}
	return nil
}

// appendInt appends a non-negative int as a uvarint — the measurement
// cache's self-delimiting integer convention.
func appendInt(key []byte, v int) []byte {
	return binary.AppendUvarint(key, uint64(v))
}
