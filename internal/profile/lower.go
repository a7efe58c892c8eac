// Package profile is the latency oracle behind IOS's profile-based
// scheduling: it lowers schedule-unit operators to GPU kernels and executes
// stages on the gpusim device model — a deterministic function of the
// stage's lowered stream programs, which is what lets internal/measure
// cache it. The paper's GENERATESTAGE "directly measures the latencies of
// both parallelization strategies on the hardware"; here the hardware is
// the simulator, but the interface — ask for the latency of a stage under
// a strategy, get a number — is identical, so the scheduler above it is
// unchanged.
package profile

import (
	"fmt"

	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/schedule"
)

// Options tunes how operators are lowered to kernels. The zero value is
// the IOS engine's own configuration (cuDNN-style kernels, activations
// fused into producers). The frameworks package uses other settings to
// model comparator engines.
type Options struct {
	// UnfuseActivations lowers a fused activation as a separate
	// elementwise kernel after its producer (TensorFlow-style engines
	// without fusion).
	UnfuseActivations bool
	// KernelQuality scales the *duration* of kernels for an operator
	// kind: quality 2.0 halves a kernel's effective work (TVM-AutoTune's
	// better separable-conv kernels). Nil means quality 1 everywhere.
	KernelQuality func(op graph.Op) float64
	// ExtraLaunchOverhead adds per-kernel framework dispatch time in
	// seconds on top of the device's launch overhead (interpreter-driven
	// engines like TensorFlow).
	ExtraLaunchOverhead float64
	// LaunchOverheadScale scales the device's per-kernel launch overhead
	// (< 1 for ahead-of-time engines with pre-packed launch descriptors,
	// e.g. TVM's graph runtime). Zero means 1.
	LaunchOverheadScale float64
}

func (o Options) quality(op graph.Op) float64 {
	if o.KernelQuality == nil {
		return 1
	}
	q := o.KernelQuality(op)
	if q <= 0 {
		return 1
	}
	return q
}

// LowerNode converts one schedule-unit operator to its kernel sequence.
func LowerNode(n *graph.Node, opts Options) []gpusim.Kernel {
	q := opts.quality(n.Op)
	out := n.Output
	var kernels []gpusim.Kernel
	switch n.Op.Kind {
	case graph.OpInput, graph.OpIdentity:
		return nil
	case graph.OpSepConv:
		in := n.Inputs[0].Output
		// Depthwise kernel (includes the unit's leading activation and,
		// for multi-input units, the fused input aggregation:
		// Relu-SepConv reads the inputs once either way).
		nin := float64(len(n.Inputs))
		dwOut := graph.Shape{N: out.N, C: in.C, H: out.H, W: out.W}
		dwFLOPs := 2*float64(n.Op.KernelH)*float64(n.Op.KernelW)*float64(dwOut.Elems()) +
			(nin-1)*float64(in.Elems())
		dwBytes := nin*float64(in.Bytes()) + 4*float64(in.C)*float64(n.Op.KernelH)*float64(n.Op.KernelW) + float64(dwOut.Bytes())
		kernels = append(kernels, gpusim.Kernel{
			Name:  n.Name + ".dw",
			FLOPs: dwFLOPs / q, Bytes: dwBytes / q,
			Blocks:        gpusim.GridFor(dwOut.Elems()),
			WarpsPerBlock: gpusim.DefaultWarpsPerBlock,
		})
		pwFLOPs := 2 * float64(in.C) * float64(out.Elems())
		pwBytes := float64(dwOut.Bytes()) + 4*float64(in.C)*float64(n.Op.OutChannels) + float64(out.Bytes())
		kernels = append(kernels, gpusim.Kernel{
			Name:  n.Name + ".pw",
			FLOPs: pwFLOPs / q, Bytes: pwBytes / q,
			Blocks:        gpusim.GridFor(out.Elems()),
			WarpsPerBlock: gpusim.DefaultWarpsPerBlock,
		})
	default:
		k := gpusim.Kernel{
			Name:          n.Name,
			FLOPs:         graph.FLOPs(n) / q,
			Bytes:         graph.MemoryBytes(n) / q,
			Blocks:        gpusim.GridFor(out.Elems()),
			WarpsPerBlock: gpusim.DefaultWarpsPerBlock,
		}
		kernels = append(kernels, k)
	}
	if opts.UnfuseActivations && n.Op.Act == graph.ActReLU {
		kernels = append(kernels, gpusim.Kernel{
			Name:          n.Name + ".relu",
			FLOPs:         float64(out.Elems()),
			Bytes:         2 * float64(out.Bytes()),
			Blocks:        gpusim.GridFor(out.Elems()),
			WarpsPerBlock: gpusim.DefaultWarpsPerBlock,
		})
	}
	return kernels
}

// MergedKernels lowers a merge stage: one kernel whose smaller filters are
// zero-padded to the largest kernel size (increasing compute, Section 7.2)
// but which reads the shared input only once, plus a split copy to recover
// the per-operator outputs unless every merged operator's consumers are
// the same single concat node (in which case the merged layout already is
// the concatenated tensor).
func MergedKernels(ops []*graph.Node, opts Options) ([]gpusim.Kernel, error) {
	if !schedule.CanMerge(ops) {
		return nil, fmt.Errorf("profile: operators not merge-eligible")
	}
	in := ops[0].Inputs[0].Output
	maxKH, maxKW, outC := 0, 0, 0
	for _, n := range ops {
		if n.Op.KernelH > maxKH {
			maxKH = n.Op.KernelH
		}
		if n.Op.KernelW > maxKW {
			maxKW = n.Op.KernelW
		}
		outC += n.Op.OutChannels
	}
	// All merged convolutions share stride and "same" padding, so the
	// padded-to-max kernel produces identical spatial dims.
	oh := (in.H + 2*((maxKH-1)/2) - maxKH) / ops[0].Op.StrideH
	oh++
	ow := (in.W + 2*((maxKW-1)/2) - maxKW) / ops[0].Op.StrideW
	ow++
	out := graph.Shape{N: in.N, C: outC, H: oh, W: ow}

	q := opts.quality(ops[0].Op)
	flops := 2 * float64(in.C) * float64(maxKH) * float64(maxKW) * float64(out.Elems())
	bytes := float64(in.Bytes()) + 4*float64(outC)*float64(in.C)*float64(maxKH)*float64(maxKW) + float64(out.Bytes())
	kernels := []gpusim.Kernel{{
		Name:  "merged",
		FLOPs: flops / q, Bytes: bytes / q,
		Blocks:        gpusim.GridFor(out.Elems()),
		WarpsPerBlock: gpusim.DefaultWarpsPerBlock,
	}}
	if !splitIsFree(ops) {
		kernels = append(kernels, gpusim.Kernel{
			Name:          "split",
			FLOPs:         0,
			Bytes:         2 * float64(out.Bytes()),
			Blocks:        gpusim.GridFor(out.Elems()),
			WarpsPerBlock: gpusim.DefaultWarpsPerBlock,
		})
	}
	return kernels, nil
}

// splitIsFree reports whether the merged output needs no split copy: every
// merged operator feeds exactly the same single concat consumer, and that
// concat concatenates exactly these operators in order, so the merged
// tensor *is* the concat output.
func splitIsFree(ops []*graph.Node) bool {
	var concat *graph.Node
	for _, n := range ops {
		outs := n.Outputs()
		if len(outs) != 1 || outs[0].Op.Kind != graph.OpConcat {
			return false
		}
		if concat == nil {
			concat = outs[0]
		} else if outs[0] != concat {
			return false
		}
	}
	if concat == nil || len(concat.Inputs) != len(ops) {
		return false
	}
	for i, in := range concat.Inputs {
		if in != ops[i] {
			return false
		}
	}
	return true
}
