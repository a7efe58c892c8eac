// Package schedule defines the schedule IR produced by IOS and consumed by
// the execution engines: an ordered list of stages, each with a
// parallelization strategy and a partition of its operators into groups
// (Section 3). Stages execute sequentially; within a "concurrent execution"
// stage, groups run concurrently and operators within a group run
// sequentially; an "operator merge" stage executes all of its operators as
// one fused kernel.
package schedule

import (
	"fmt"
	"strings"

	"ios/internal/graph"
)

// Strategy is a stage's parallelization strategy. One byte, so a value
// that carries one beside a bitmask (the DP's per-state choice) stays 16.
type Strategy uint8

const (
	// Concurrent is the paper's "concurrent execution": disjoint groups
	// on separate streams.
	Concurrent Strategy = iota
	// Merge is the paper's "operator merge": same-type operators stacked
	// into one wider kernel.
	Merge
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	if s == Merge {
		return "operator merge"
	}
	return "concurrent execution"
}

// ParseStrategy maps a strategy's String, or the short "concurrent" or
// "merge", back to it. The caller's error says where the name came from.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case Concurrent.String(), "concurrent":
		return Concurrent, nil
	case Merge.String(), "merge":
		return Merge, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
}

// Stage is one step of a schedule.
type Stage struct {
	// Strategy selects how the stage's operators are parallelized.
	Strategy Strategy
	// Groups partitions the stage's operators. For Concurrent, each
	// group is a chain executed on its own stream in slice order. For
	// Merge there is a single group whose operators fuse into one
	// kernel.
	Groups [][]*graph.Node
}

// Ops returns all operators in the stage, in group order.
func (st Stage) Ops() []*graph.Node {
	var out []*graph.Node
	for _, g := range st.Groups {
		out = append(out, g...)
	}
	return out
}

// NumOps returns the operator count of the stage.
func (st Stage) NumOps() int {
	n := 0
	for _, g := range st.Groups {
		n += len(g)
	}
	return n
}

// String renders a compact stage description like
// "[{a, b} | {c}] concurrent execution".
func (st Stage) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, g := range st.Groups {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteByte('{')
		for j, n := range g {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(n.Name)
		}
		b.WriteByte('}')
	}
	b.WriteString("] ")
	b.WriteString(st.Strategy.String())
	return b.String()
}

// Schedule is an execution plan for a graph: the paper's
// Q = {(S1,T1), ..., (Sk,Tk)}.
type Schedule struct {
	// Graph is the computation graph this schedule executes.
	Graph *graph.Graph
	// Stages run sequentially in slice order.
	Stages []Stage
}

// NumStages returns the stage count.
func (s *Schedule) NumStages() int { return len(s.Stages) }

// Summary condenses a schedule's shape into the few numbers that reports
// and serving responses quote: how many stages of each strategy, the
// operator count, and the widest stage (its group count, i.e. how many
// streams the schedule ever occupies at once).
type Summary struct {
	Stages           int `json:"stages"`
	Ops              int `json:"ops"`
	ConcurrentStages int `json:"concurrent_stages"`
	MergeStages      int `json:"merge_stages"`
	MaxWidth         int `json:"max_width"`
}

// Summarize computes the schedule's Summary.
func (s *Schedule) Summarize() Summary {
	sum := Summary{Stages: len(s.Stages)}
	for _, st := range s.Stages {
		sum.Ops += st.NumOps()
		if st.Strategy == Merge {
			sum.MergeStages++
		} else {
			sum.ConcurrentStages++
		}
		if w := len(st.Groups); w > sum.MaxWidth {
			sum.MaxWidth = w
		}
	}
	return sum
}

// String renders one stage per line.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule for %q (%d stages)\n", s.Graph.Name, len(s.Stages))
	for i, st := range s.Stages {
		fmt.Fprintf(&b, "  stage %d: %s\n", i+1, st.String())
	}
	return b.String()
}

// CanMerge reports whether the operators are eligible for the paper's
// "operator merge" strategy: same operator type with possibly different
// hyperparameters, same stride, consuming the same input tensor, so their
// kernels can be padded to a common size and stacked along the output
// channel dimension (Section 3, "Parallelization Strategy").
func CanMerge(ops []*graph.Node) bool {
	if len(ops) < 2 {
		return false
	}
	first := ops[0]
	if first.Op.Kind != graph.OpConv {
		// Separable convolutions cannot be merged (Section 6.1:
		// "we can not merge Relu-SepConv operators"): the depthwise
		// stage is per-channel, so stacking output channels would need
		// the *input* channels duplicated.
		return false
	}
	if len(first.Inputs) != 1 || first.Op.Groups != 1 {
		return false
	}
	samePad := func(op graph.Op) bool {
		return op.PadH == (op.KernelH-1)/2 && op.PadW == (op.KernelW-1)/2 &&
			op.KernelH%2 == 1 && op.KernelW%2 == 1
	}
	if !samePad(first.Op) {
		return false
	}
	for _, n := range ops[1:] {
		if n.Op.Kind != graph.OpConv || n.Op.Groups != 1 {
			return false
		}
		if len(n.Inputs) != 1 || n.Inputs[0] != first.Inputs[0] {
			return false
		}
		if n.Op.StrideH != first.Op.StrideH || n.Op.StrideW != first.Op.StrideW {
			return false
		}
		if n.Op.Act != first.Op.Act {
			return false
		}
		if !samePad(n.Op) {
			return false
		}
	}
	return true
}

// Validate checks that the schedule is feasible for its graph: the stage
// rules of CheckStages over all of the graph's nodes.
func (s *Schedule) Validate() error { return CheckStages(s.Stages, s.Graph.Nodes, s.Graph.Index) }

// CheckStages checks a stage list against scope, the nodes it must
// schedule — a graph's, or a block's — where index(n) is n's position in
// scope, or -1 for a node outside it:
//
//   - the stages partition scope's operators (its non-input nodes);
//   - every edge (u, v) within scope has stage(u) <= stage(v) — i.e. each
//     stage's operator set is an ending of the suffix it closes
//     (Section 4.1); an edge from outside scope is not its concern;
//   - within a stage, groups are non-empty and disjoint, operators
//     connected by an edge share a group (the concurrent-execution rule),
//     and each group's order respects dependencies;
//   - a merge stage's operators are merge-eligible (CanMerge).
//
// A node outside scope counts towards coverage, so its twin in scope goes
// unscheduled. Refusals come in stage order, then coverage, then edges.
// Over a scope of up to 64 nodes it allocates nothing.
func CheckStages(stages []Stage, scope []*graph.Node, index func(*graph.Node) int) error {
	// at[i] places scope[i], stage 1-based (0: unscheduled); a node
	// outside scope only counts, its stage in foreign.
	type place struct{ stage, group, pos int32 }
	var small [64]place
	at := small[:min(len(scope), len(small))]
	if len(scope) > len(small) {
		at = make([]place, len(scope))
	}
	var foreign map[*graph.Node]int32
	covered := 0
	for si, st := range stages {
		if len(st.Groups) == 0 {
			return fmt.Errorf("schedule: stage %d has no groups", si+1)
		}
		merged := st.Groups[0] // a search's merge stage is one group: no copy
		if st.Strategy == Merge && len(st.Groups) > 1 {
			merged = st.Ops()
		}
		if st.Strategy == Merge && !CanMerge(merged) {
			return fmt.Errorf("schedule: stage %d merges operators that are not merge-eligible", si+1)
		}
		for gi, grp := range st.Groups {
			if len(grp) == 0 {
				return fmt.Errorf("schedule: stage %d group %d is empty", si+1, gi+1)
			}
			for pi, n := range grp {
				if n.Op.Kind == graph.OpInput {
					return fmt.Errorf("schedule: input node %q scheduled in stage %d", n.Name, si+1)
				}
				var prev int32 // the 1-based stage n is already in, if any
				if i := index(n); i >= 0 {
					prev, at[i] = at[i].stage, place{int32(si + 1), int32(gi), int32(pi)}
				} else {
					if foreign == nil {
						foreign = map[*graph.Node]int32{}
					}
					prev, foreign[n] = foreign[n], int32(si+1)
				}
				if prev > 0 {
					return fmt.Errorf("schedule: node %q in both stage %d and stage %d", n.Name, prev, si+1)
				}
				covered++
			}
		}
	}
	ops, missing := 0, -1
	for i, n := range scope {
		if n.Op.Kind != graph.OpInput {
			if ops++; at[i].stage == 0 && missing < 0 {
				missing = i
			}
		}
	}
	if covered != ops {
		return fmt.Errorf("schedule: covers %d of %d operators", covered, ops)
	}
	if missing >= 0 {
		return fmt.Errorf("schedule: operator %q not scheduled", scope[missing].Name)
	}
	for i, v := range scope {
		for _, u := range v.Inputs {
			if u.Op.Kind == graph.OpInput {
				continue
			}
			j := index(u)
			if j < 0 {
				continue
			}
			pu, pv := at[j], at[i]
			if pu.stage > pv.stage {
				return fmt.Errorf("schedule: edge %q->%q runs backwards (stage %d -> %d)", u.Name, v.Name, pu.stage, pv.stage)
			}
			if pu.stage == pv.stage {
				if pu.group != pv.group {
					return fmt.Errorf("schedule: edge %q->%q crosses groups within stage %d", u.Name, v.Name, pu.stage)
				}
				if pu.pos >= pv.pos {
					return fmt.Errorf("schedule: edge %q->%q violates group order in stage %d", u.Name, v.Name, pu.stage)
				}
			}
		}
	}
	return nil
}

// Transfer returns the schedule's stages over g's nodes of the same names,
// validated against g: the move of a schedule onto its architecture at
// another batch size (Graph.WithBatch keeps every name) or onto another
// value of the same graph. On its own graph it returns s itself.
func (s *Schedule) Transfer(g *graph.Graph) (*Schedule, error) {
	if g == s.Graph {
		return s, nil
	}
	out := &Schedule{Graph: g, Stages: make([]Stage, len(s.Stages))}
	for si, st := range s.Stages {
		groups := make([][]*graph.Node, len(st.Groups))
		for gi, grp := range st.Groups {
			groups[gi] = make([]*graph.Node, len(grp))
			for ni, n := range grp {
				if groups[gi][ni] = g.NodeByName(n.Name); groups[gi][ni] == nil {
					return nil, fmt.Errorf("schedule: stage %d references node %q, which graph %q lacks", si+1, n.Name, g.Name)
				}
			}
		}
		out.Stages[si] = Stage{Strategy: st.Strategy, Groups: groups}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
