// Package graph defines the computation-graph IR that IOS schedules: a
// directed acyclic graph of CNN operators with NCHW tensor shapes, plus the
// analyses the scheduler needs (topological order, DAG width, block
// partitioning, FLOP and memory-traffic accounting).
//
// A Graph corresponds to the paper's G = (V, E): V is the set of operators
// and each edge (u, v) is a tensor produced by u and consumed by v
// (Section 3). Operators are the paper's schedule units — e.g. a
// convolution with a fused ReLU ("Conv-Relu") or a ReLU followed by a
// separable convolution ("Relu-SepConv") is one unit.
package graph

import "fmt"

// OpKind identifies the operator type of a node.
type OpKind int

// The operator kinds used by the paper's benchmark networks.
const (
	// OpInput is a graph input placeholder. It performs no work and is
	// never scheduled.
	OpInput OpKind = iota
	// OpConv is a 2-D convolution, optionally with a fused activation
	// ("Conv-Relu" in Table 2).
	OpConv
	// OpSepConv is a separable convolution: a depthwise k×k convolution
	// followed by a pointwise 1×1 convolution, optionally preceded by a
	// fused activation ("Relu-SepConv" in Table 2). It is one schedule
	// unit that lowers to two GPU kernels.
	OpSepConv
	// OpPool is a 2-D max or average pooling.
	OpPool
	// OpMatmul is a fully connected layer (matrix multiplication).
	OpMatmul
	// OpConcat concatenates its inputs along the channel dimension.
	OpConcat
	// OpAdd sums its inputs elementwise (residual connections and
	// RandWire's weighted-sum aggregation).
	OpAdd
	// OpReLU is a standalone activation (memory-bound elementwise op).
	OpReLU
	// OpIdentity forwards its input unchanged (used by NASNet cells).
	OpIdentity
	// OpGlobalPool reduces H×W to 1×1 by averaging.
	OpGlobalPool
)

// String returns the lower-case operator name.
func (k OpKind) String() string {
	switch k {
	case OpInput:
		return "input"
	case OpConv:
		return "conv"
	case OpSepConv:
		return "sepconv"
	case OpPool:
		return "pool"
	case OpMatmul:
		return "matmul"
	case OpConcat:
		return "concat"
	case OpAdd:
		return "add"
	case OpReLU:
		return "relu"
	case OpIdentity:
		return "identity"
	case OpGlobalPool:
		return "globalpool"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// Activation is an optional activation fused into a compute operator.
type Activation int

// Supported fused activations.
const (
	// ActNone applies no activation.
	ActNone Activation = iota
	// ActReLU applies max(x, 0).
	ActReLU
)

// String returns the activation name.
func (a Activation) String() string {
	if a == ActReLU {
		return "relu"
	}
	return "none"
}

// PoolKind distinguishes pooling variants.
type PoolKind int

// Supported pooling variants.
const (
	// MaxPool takes the window maximum.
	MaxPool PoolKind = iota
	// AvgPool takes the window average.
	AvgPool
)

// String returns the pooling variant name.
func (p PoolKind) String() string {
	if p == AvgPool {
		return "avg"
	}
	return "max"
}

// Op holds the operator type and hyperparameters of a node. Fields are
// meaningful only for the kinds that use them.
//
// Every field can influence lowering, merge eligibility, or merged-kernel
// construction, so every field is fp:"include": the block cache's
// structural fingerprint (blockcache appendOp) must encode all of them.
// blockcache's TestKeyEncodersCoverIncludeFields perturbs each field and
// fails unless an included one moves the key, so a field added here is
// either encoded there or explicitly tagged fp:"exempt".
type Op struct {
	Kind OpKind `fp:"include"`

	// Convolution / pooling geometry.
	OutChannels      int `fp:"include"` // Conv, SepConv: number of output channels
	KernelH, KernelW int `fp:"include"` // Conv, SepConv, Pool
	StrideH, StrideW int `fp:"include"` // Conv, SepConv, Pool
	PadH, PadW       int `fp:"include"` // zero padding on each side
	Groups           int `fp:"include"` // Conv: grouped convolution factor (1 = dense)

	// Act is the activation fused into this operator, if any. For
	// OpSepConv the paper's unit is Relu-SepConv: the activation is
	// applied before the depthwise kernel.
	Act Activation `fp:"include"`

	// Pool selects max or average pooling for OpPool.
	Pool PoolKind `fp:"include"`

	// OutFeatures is the output width of OpMatmul.
	OutFeatures int `fp:"include"`
}

// String renders a compact human-readable description, e.g.
// "conv 3x3/1 x384 relu".
func (o Op) String() string {
	switch o.Kind {
	case OpConv, OpSepConv:
		s := fmt.Sprintf("%s %dx%d/%d x%d", o.Kind, o.KernelH, o.KernelW, o.StrideH, o.OutChannels)
		if o.Groups > 1 {
			s += fmt.Sprintf(" g%d", o.Groups)
		}
		if o.Act == ActReLU {
			s += " relu"
		}
		return s
	case OpPool:
		return fmt.Sprintf("%spool %dx%d/%d", o.Pool, o.KernelH, o.KernelW, o.StrideH)
	case OpMatmul:
		return fmt.Sprintf("matmul x%d", o.OutFeatures)
	default:
		return o.Kind.String()
	}
}

// IsComputeUnit reports whether the operator performs arithmetic work that
// dominates a kernel (as opposed to pure data movement).
func (o Op) IsComputeUnit() bool {
	switch o.Kind {
	case OpConv, OpSepConv, OpMatmul:
		return true
	default:
		return false
	}
}
