// Package refexec executes computation graphs and schedules over real
// tensors on the CPU. It is the correctness oracle of the repository: a
// schedule is executed stage by stage, with each stage's groups running on
// separate goroutines (the CPU analogue of CUDA streams) and merge stages
// executing the actual stacked-and-padded kernel, and the result is
// compared bit-for-bit against plain sequential execution. This proves the
// two IOS transformations — concurrent execution and operator merge — are
// semantics-preserving on real data, something the latency simulator
// cannot establish.
package refexec

import (
	"fmt"
	"sync"

	"ios/internal/graph"
	"ios/internal/schedule"
	"ios/internal/tensor"
)

// Weights holds deterministic parameters for every parameterized node of a
// graph, generated from a base seed so executions are reproducible.
type Weights struct {
	// conv maps node ID to its filter bank (depthwise bank for SepConv).
	conv map[int]*tensor.ConvWeights
	// pw maps SepConv node ID to its pointwise bank.
	pw map[int]*tensor.ConvWeights
}

// GenerateWeights creates pseudo-random weights for g derived from seed.
func GenerateWeights(g *graph.Graph, seed int64) *Weights {
	w := &Weights{conv: make(map[int]*tensor.ConvWeights), pw: make(map[int]*tensor.ConvWeights)}
	for _, n := range g.Nodes {
		nodeSeed := seed*1000003 + int64(n.ID)
		switch n.Op.Kind {
		case graph.OpConv:
			in := n.Inputs[0].Output
			w.conv[n.ID] = tensor.RandomConvWeights(n.Op.OutChannels, in.C/n.Op.Groups, n.Op.KernelH, n.Op.KernelW, nodeSeed)
		case graph.OpSepConv:
			in := n.Inputs[0].Output
			w.conv[n.ID] = tensor.RandomConvWeights(in.C, 1, n.Op.KernelH, n.Op.KernelW, nodeSeed)
			w.pw[n.ID] = tensor.RandomConvWeights(n.Op.OutChannels, in.C, 1, 1, nodeSeed+1)
		case graph.OpMatmul:
			in := n.Inputs[0].Output
			w.conv[n.ID] = tensor.RandomConvWeights(n.Op.OutFeatures, in.C*in.H*in.W, 1, 1, nodeSeed)
		}
	}
	return w
}

// Env is one execution's tensor environment: node ID -> output tensor.
type Env map[int]*tensor.Tensor

func (e Env) get(id int) (*tensor.Tensor, bool) {
	t, ok := e[id]
	return t, ok
}

// envReader abstracts tensor lookup so concurrent groups can read through
// a private overlay without mutating the shared environment.
type envReader interface {
	get(id int) (*tensor.Tensor, bool)
}

// overlay reads the group-local map first, then the shared base.
type overlay struct {
	base, local Env
}

func (o overlay) get(id int) (*tensor.Tensor, bool) {
	if t, ok := o.local[id]; ok {
		return t, true
	}
	return o.base.get(id)
}

// RunNode executes a single node given its input tensors in env.
func RunNode(n *graph.Node, w *Weights, env envReader) (*tensor.Tensor, error) {
	ins := make([]*tensor.Tensor, len(n.Inputs))
	for i, p := range n.Inputs {
		t, ok := env.get(p.ID)
		if !ok {
			return nil, fmt.Errorf("refexec: node %q input %q not computed", n.Name, p.Name)
		}
		ins[i] = t
	}
	op := n.Op
	switch op.Kind {
	case graph.OpConv:
		return tensor.Conv2D(ins[0], w.conv[n.ID], op.StrideH, op.StrideW, op.PadH, op.PadW, op.Groups, op.Act)
	case graph.OpSepConv:
		return tensor.SepConv(ins, w.conv[n.ID], w.pw[n.ID], op.StrideH, op.StrideW, op.PadH, op.PadW, op.Act)
	case graph.OpPool:
		return tensor.Pool(ins[0], op.Pool, op.KernelH, op.StrideH, op.StrideW, op.PadH, op.PadW)
	case graph.OpGlobalPool:
		return tensor.GlobalAvgPool(ins[0]), nil
	case graph.OpMatmul:
		return tensor.Matmul(ins[0], w.conv[n.ID])
	case graph.OpConcat:
		return tensor.Concat(ins)
	case graph.OpAdd:
		return tensor.Add(ins)
	case graph.OpReLU:
		return tensor.ReLU(ins[0]), nil
	case graph.OpIdentity:
		return ins[0].Clone(), nil
	default:
		return nil, fmt.Errorf("refexec: cannot execute %v", op.Kind)
	}
}

// RunSequential executes the whole graph in topological order and returns
// the environment with every node's output.
func RunSequential(g *graph.Graph, w *Weights, inputs map[string]*tensor.Tensor) (Env, error) {
	env := make(Env, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Op.Kind == graph.OpInput {
			t, ok := inputs[n.Name]
			if !ok {
				return nil, fmt.Errorf("refexec: missing input tensor %q", n.Name)
			}
			if t.Shape != n.Output {
				return nil, fmt.Errorf("refexec: input %q shape %v, want %v", n.Name, t.Shape, n.Output)
			}
			env[n.ID] = t
			continue
		}
		out, err := RunNode(n, w, env)
		if err != nil {
			return nil, err
		}
		env[n.ID] = out
	}
	return env, nil
}

// RunSchedule executes a schedule stage by stage: concurrent stages run
// their groups on separate goroutines; merge stages execute one stacked
// convolution with padded kernels and split the output.
func RunSchedule(s *schedule.Schedule, w *Weights, inputs map[string]*tensor.Tensor) (Env, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	env := make(Env, len(s.Graph.Nodes))
	for _, n := range s.Graph.Nodes {
		if n.Op.Kind == graph.OpInput {
			t, ok := inputs[n.Name]
			if !ok {
				return nil, fmt.Errorf("refexec: missing input tensor %q", n.Name)
			}
			env[n.ID] = t
		}
	}
	for si, st := range s.Stages {
		if st.Strategy == schedule.Merge {
			if err := runMergeStage(st, w, env); err != nil {
				return nil, fmt.Errorf("refexec: stage %d: %w", si+1, err)
			}
			continue
		}
		// Each group runs on its own goroutine over a private overlay of
		// the (now read-only) environment: schedule validation guarantees
		// that same-stage dependencies never cross groups, so groups
		// only read earlier-stage tensors plus their own outputs. Group
		// results merge into env at the stage barrier.
		var wg sync.WaitGroup
		errs := make([]error, len(st.Groups))
		outs := make([]Env, len(st.Groups))
		for gi, grp := range st.Groups {
			wg.Add(1)
			go func(gi int, grp []*graph.Node) {
				defer wg.Done()
				local := make(Env, len(grp))
				for _, n := range grp {
					out, err := RunNode(n, w, overlay{base: env, local: local})
					if err != nil {
						errs[gi] = err
						return
					}
					local[n.ID] = out
				}
				outs[gi] = local
			}(gi, grp)
		}
		wg.Wait()
		for gi, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("refexec: stage %d group %d: %w", si+1, gi+1, err)
			}
		}
		for _, local := range outs {
			for id, t := range local {
				env[id] = t
			}
		}
	}
	return env, nil
}

// runMergeStage executes an operator-merge stage: stack the (padded)
// filter banks, run one convolution, split the result back into the
// original operators' outputs.
func runMergeStage(st schedule.Stage, w *Weights, env Env) error {
	ops := st.Ops()
	if !schedule.CanMerge(ops) {
		return fmt.Errorf("merge stage operators are not merge-eligible")
	}
	maxKH, maxKW := 0, 0
	for _, n := range ops {
		if n.Op.KernelH > maxKH {
			maxKH = n.Op.KernelH
		}
		if n.Op.KernelW > maxKW {
			maxKW = n.Op.KernelW
		}
	}
	banks := make([]*tensor.ConvWeights, len(ops))
	channels := make([]int, len(ops))
	for i, n := range ops {
		padded, err := w.conv[n.ID].PadTo(maxKH, maxKW)
		if err != nil {
			return err
		}
		banks[i] = padded
		channels[i] = n.Op.OutChannels
	}
	stacked, err := tensor.StackConvWeights(banks)
	if err != nil {
		return err
	}
	in, ok := env[ops[0].Inputs[0].ID]
	if !ok {
		return fmt.Errorf("merge stage input %q not computed", ops[0].Inputs[0].Name)
	}
	merged, err := tensor.Conv2D(in, stacked,
		ops[0].Op.StrideH, ops[0].Op.StrideW, (maxKH-1)/2, (maxKW-1)/2, 1, ops[0].Op.Act)
	if err != nil {
		return err
	}
	parts, err := tensor.SplitChannels(merged, channels)
	if err != nil {
		return err
	}
	for i, n := range ops {
		env[n.ID] = parts[i]
	}
	return nil
}
