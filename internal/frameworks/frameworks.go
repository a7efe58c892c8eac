// Package frameworks models the comparator systems of the paper's
// Sections 6.2, 7.3, and 7.4 — TensorFlow, TensorFlow-XLA, TASO,
// TVM-cuDNN, TensorRT, and TVM-AutoTune — as combinations of a scheduling
// policy, an engine-overhead profile, and kernel-quality factors on the
// shared GPU simulator. All of them execute sequentially (no
// inter-operator parallelism); they differ in dispatch overhead, operator
// fusion, graph substitutions, and kernel code quality, which is exactly
// the axis the paper's comparisons exercise.
package frameworks

import (
	"context"
	"time"

	"ios/internal/baseline"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// Framework describes one comparator engine.
type Framework struct {
	// Name is the display name used in the paper's figures.
	Name string
	// opts configures operator lowering on the simulator.
	opts profile.Options
	// useMergeSubstitutions runs TASO-style same-type operator merging
	// (modelled with IOS's MergeOnly search, which finds exactly the
	// profitable same-input merge substitutions and otherwise degenerates
	// to sequential execution).
	useMergeSubstitutions bool
	// tuningCostPerOp models the autotuning cost in GPU-seconds per
	// distinct convolution kernel (TVM-AutoTune's 208 GPU hours for the
	// four networks versus IOS's 3).
	tuningCostPerOp float64
}

// sepConvQuality is the TVM-AutoTune speedup over cuDNN on separable
// convolutions (cuDNN's depthwise kernels are notoriously inefficient at
// batch one; autotuned kernels are commonly 2-4x faster). Dense convolutions are
// near parity because cuDNN's implicit-GEMM kernels are already tuned.
func autotuneQuality(op graph.Op) float64 {
	switch op.Kind {
	case graph.OpSepConv:
		return 6.0
	case graph.OpConv:
		// AutoTVM's dense convolutions commonly trail cuDNN's
		// Winograd/implicit-GEMM kernels at batch one on big GPUs, which
		// is why the paper's Figure 12 has IOS (cuDNN kernels) winning
		// on the dense-conv networks despite no kernel tuning at all.
		return 0.85
	default:
		return 1
	}
}

// tensorRTQuality models TensorRT's kernel auto-selection: an edge on
// separable convolutions (where stock cuDNN calls are weakest) and parity
// on dense convolutions — TensorRT and the IOS engine both run cuDNN-class
// kernels, so at large batch (saturated device) their per-kernel times
// converge and TensorRT's remaining advantage is launch-side (ahead-of-time
// engine building, modeled via LaunchOverheadScale), exactly why the
// paper's Figure 11 keeps IOS ahead at every batch size.
func tensorRTQuality(op graph.Op) float64 {
	switch op.Kind {
	case graph.OpSepConv:
		return 1.3
	default:
		return 1
	}
}

// The comparator presets.
var (
	// TensorFlow: interpreter-dispatched cuDNN calls, no activation
	// fusion, high per-op overhead.
	TensorFlow = Framework{
		Name: "Tensorflow",
		opts: profile.Options{UnfuseActivations: true, ExtraLaunchOverhead: 12e-6},
	}
	// TensorFlowXLA: XLA fuses elementwise operators into producers and
	// reduces dispatch overhead.
	TensorFlowXLA = Framework{
		Name: "Tensorflow-XLA",
		opts: profile.Options{ExtraLaunchOverhead: 6e-6},
	}
	// TASO: optimized graph substitutions (including same-type operator
	// merging), executed sequentially with a lean runtime.
	TASO = Framework{
		Name:                  "TASO",
		opts:                  profile.Options{ExtraLaunchOverhead: 1.5e-6},
		useMergeSubstitutions: true,
	}
	// TVMcuDNN: TVM graph runtime dispatching cuDNN convolutions.
	TVMcuDNN = Framework{
		Name: "TVM-cuDNN",
		opts: profile.Options{ExtraLaunchOverhead: 2e-6},
	}
	// TensorRT: the strongest sequential baseline — fused conv+activation
	// kernels, minimal dispatch overhead, tuned kernel selection.
	TensorRT = Framework{
		Name: "TensorRT",
		opts: profile.Options{ExtraLaunchOverhead: 0.5e-6, KernelQuality: tensorRTQuality,
			LaunchOverheadScale: 0.7},
	}
	// TVMAutoTune: TVM with AutoTVM-tuned kernels per operator; much
	// faster separable convolutions at a two-orders-of-magnitude larger
	// optimization cost (Figure 12).
	TVMAutoTune = Framework{
		Name: "TVM-AutoTune",
		opts: profile.Options{ExtraLaunchOverhead: 0.5e-6, KernelQuality: autotuneQuality,
			LaunchOverheadScale: 0.55},
		tuningCostPerOp: 600, // ~10 GPU-minutes of tuning per distinct kernel
	}
)

// CuDNNBaselines returns the five cuDNN-based comparators of Figure 7 in
// display order.
func CuDNNBaselines() []Framework {
	return []Framework{TensorFlow, TensorFlowXLA, TASO, TVMcuDNN, TensorRT}
}

// Measurement reports a framework run.
type Measurement struct {
	// Latency is the end-to-end inference latency in seconds.
	Latency float64
	// Schedule is the execution plan the framework used.
	Schedule *schedule.Schedule
	// OptimizationCost is the modelled offline tuning/search cost in
	// GPU-seconds (zero for engines without a tuning step).
	OptimizationCost time.Duration
}

// ProfileOptions exposes the framework's kernel/lowering model, so
// extension experiments can combine it with other schedulers (e.g. IOS on
// autotuned kernels — the paper's Section 7.4 future work).
func (f Framework) ProfileOptions() profile.Options { return f.opts }

// Measure runs the framework's policy on the graph and device; ctx
// cancels the merge-substitution search of the frameworks that run one.
func (f Framework) Measure(ctx context.Context, g *graph.Graph, spec gpusim.Spec) (Measurement, error) {
	prof := profile.NewWithOptions(spec, f.opts)
	var (
		sched *schedule.Schedule
		err   error
	)
	if f.useMergeSubstitutions {
		res, oerr := core.OptimizeContext(ctx, g, prof, core.Options{Strategies: core.MergeOnly})
		if oerr != nil {
			return Measurement{}, oerr
		}
		sched = res.Schedule
	} else {
		sched, err = baseline.Sequential(g)
		if err != nil {
			return Measurement{}, err
		}
	}
	lat, err := prof.MeasureSchedule(sched)
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{Latency: lat, Schedule: sched}
	if f.tuningCostPerOp > 0 {
		m.OptimizationCost = time.Duration(float64(distinctKernels(g)) * f.tuningCostPerOp * float64(time.Second))
	}
	return m, nil
}

// distinctKernels counts the distinct convolution workloads AutoTVM would
// tune (unique op signature + input shape combinations).
func distinctKernels(g *graph.Graph) int {
	type sig struct {
		op graph.Op
		in graph.Shape
	}
	seen := make(map[sig]bool)
	for _, n := range g.Nodes {
		if n.Op.IsComputeUnit() {
			seen[sig{n.Op, n.Inputs[0].Output}] = true
		}
	}
	return len(seen)
}
