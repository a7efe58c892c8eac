package graph

import "fmt"

// Shape is an NCHW tensor shape. Fully connected activations use C as the
// feature dimension with H = W = 1. All four dimensions enter the block
// cache's structural fingerprint (blockcache appendShape), which
// blockcache's TestKeyEncodersCoverIncludeFields checks field by field.
type Shape struct {
	N, C, H, W int `fp:"include"`
}

// Elems returns the number of scalar elements in the shape.
func (s Shape) Elems() int64 {
	return int64(s.N) * int64(s.C) * int64(s.H) * int64(s.W)
}

// Bytes returns the storage size in bytes for float32 elements.
func (s Shape) Bytes() int64 { return 4 * s.Elems() }

// WithBatch returns a copy of s with the batch dimension replaced.
func (s Shape) WithBatch(n int) Shape {
	s.N = n
	return s
}

// String renders the shape as "NxCxHxW".
func (s Shape) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", s.N, s.C, s.H, s.W)
}

// convOut computes the spatial output size of a convolution/pooling window.
func convOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// outputShape computes the output shape of op applied to the given input
// shapes, returning an error if the combination is invalid.
func outputShape(op Op, inputs []Shape) (Shape, error) {
	switch op.Kind {
	case OpInput:
		return Shape{}, fmt.Errorf("graph: input nodes have fixed shapes")
	case OpConv:
		if len(inputs) != 1 {
			return Shape{}, fmt.Errorf("graph: conv wants 1 input, got %d", len(inputs))
		}
		in := inputs[0]
		if op.Groups <= 0 {
			return Shape{}, fmt.Errorf("graph: conv groups must be >= 1, got %d", op.Groups)
		}
		if in.C%op.Groups != 0 || op.OutChannels%op.Groups != 0 {
			return Shape{}, fmt.Errorf("graph: conv channels %d->%d not divisible by groups %d", in.C, op.OutChannels, op.Groups)
		}
		oh := convOut(in.H, op.KernelH, op.StrideH, op.PadH)
		ow := convOut(in.W, op.KernelW, op.StrideW, op.PadW)
		if oh <= 0 || ow <= 0 {
			return Shape{}, fmt.Errorf("graph: conv output %dx%d not positive (in %v, op %v)", oh, ow, in, op)
		}
		return Shape{in.N, op.OutChannels, oh, ow}, nil
	case OpSepConv:
		// A separable convolution may take several same-shaped inputs:
		// RandWire's schedule unit sums incoming tensors (weighted-sum
		// edge aggregation) before the depthwise kernel.
		if len(inputs) == 0 {
			return Shape{}, fmt.Errorf("graph: sepconv wants >= 1 input")
		}
		in := inputs[0]
		for _, s := range inputs[1:] {
			if s != in {
				return Shape{}, fmt.Errorf("graph: sepconv aggregation input %v incompatible with %v", s, in)
			}
		}
		oh := convOut(in.H, op.KernelH, op.StrideH, op.PadH)
		ow := convOut(in.W, op.KernelW, op.StrideW, op.PadW)
		if oh <= 0 || ow <= 0 {
			return Shape{}, fmt.Errorf("graph: sepconv output %dx%d not positive", oh, ow)
		}
		return Shape{in.N, op.OutChannels, oh, ow}, nil
	case OpPool:
		if len(inputs) != 1 {
			return Shape{}, fmt.Errorf("graph: pool wants 1 input, got %d", len(inputs))
		}
		in := inputs[0]
		oh := convOut(in.H, op.KernelH, op.StrideH, op.PadH)
		ow := convOut(in.W, op.KernelW, op.StrideW, op.PadW)
		if oh <= 0 || ow <= 0 {
			return Shape{}, fmt.Errorf("graph: pool output %dx%d not positive", oh, ow)
		}
		return Shape{in.N, in.C, oh, ow}, nil
	case OpMatmul:
		if len(inputs) != 1 {
			return Shape{}, fmt.Errorf("graph: matmul wants 1 input, got %d", len(inputs))
		}
		in := inputs[0]
		return Shape{in.N, op.OutFeatures, 1, 1}, nil
	case OpConcat:
		if len(inputs) == 0 {
			return Shape{}, fmt.Errorf("graph: concat wants >= 1 input")
		}
		out := inputs[0]
		for _, in := range inputs[1:] {
			if in.N != out.N || in.H != out.H || in.W != out.W {
				return Shape{}, fmt.Errorf("graph: concat input %v incompatible with %v", in, out)
			}
			out.C += in.C
		}
		return out, nil
	case OpAdd:
		if len(inputs) == 0 {
			return Shape{}, fmt.Errorf("graph: add wants >= 1 input")
		}
		out := inputs[0]
		for _, in := range inputs[1:] {
			if in != out {
				return Shape{}, fmt.Errorf("graph: add input %v incompatible with %v", in, out)
			}
		}
		return out, nil
	case OpReLU, OpIdentity:
		if len(inputs) != 1 {
			return Shape{}, fmt.Errorf("graph: %v wants 1 input, got %d", op.Kind, len(inputs))
		}
		return inputs[0], nil
	case OpGlobalPool:
		if len(inputs) != 1 {
			return Shape{}, fmt.Errorf("graph: globalpool wants 1 input, got %d", len(inputs))
		}
		in := inputs[0]
		return Shape{in.N, in.C, 1, 1}, nil
	default:
		return Shape{}, fmt.Errorf("graph: unknown op kind %v", op.Kind)
	}
}
