// Package ios is an open reimplementation of IOS, the Inter-Operator
// Scheduler for CNN acceleration (Ding et al., MLSys 2021). It finds, by
// dynamic programming over graph "endings", the latency-optimal partition
// of a CNN computation graph into stages, where each stage either executes
// several operator groups concurrently on separate streams or merges
// same-type operators into one wider kernel.
//
// The package bundles everything needed to use and study the scheduler:
//
//   - a computation-graph builder (NewGraph and the Graph methods);
//   - a model zoo with the paper's benchmarks (InceptionV3, RandWire,
//     NasNetA, SqueezeNet) and auxiliary networks;
//   - the scheduler itself (Engine.Optimize) plus the sequential and greedy
//     baselines;
//   - a calibrated GPU simulator standing in for cuDNN hardware
//     (devices V100, K80, RTX2080Ti, ...), used both as the profiling
//     substrate during search and as the measurement engine;
//   - a CPU reference executor (Execute) that runs schedules over real
//     tensors and verifies they compute exactly what the graph defines.
//
// Quick start:
//
//	g := ios.InceptionV3(1)                       // batch size 1
//	eng := ios.NewEngine(ios.V100)
//	res, err := eng.Optimize(ctx, g, ios.Options{})
//	if err != nil { ... }
//	lat, _ := eng.Measure(ctx, g, res.Schedule)
//	fmt.Printf("latency %.3f ms over %d stages\n", lat*1e3, res.Schedule.NumStages())
//
// The Engine is the primary API: construct one per device with NewEngine
// and functional options (WithBlockCache, WithProgress, WithBackend), then
// call its context-aware methods with per-call Options. Engine.Measure is
// the way to price a schedule; the stage-measurement memo a search fills
// is private to its engine.
package ios

import (
	"ios/internal/baseline"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/schedule"
)

// Re-exported core types. See the internal packages for full method
// documentation; the aliases make the whole surface reachable from this
// single import.
type (
	// Graph is a CNN computation graph (DAG of operators).
	Graph = graph.Graph
	// Node is one operator in a graph.
	Node = graph.Node
	// Shape is an NCHW tensor shape.
	Shape = graph.Shape
	// ConvOpts configures Graph.Conv and Graph.SepConv.
	ConvOpts = graph.ConvOpts
	// PoolOpts configures Graph.Pool.
	PoolOpts = graph.PoolOpts
	// Schedule is an execution plan: a sequence of stages.
	Schedule = schedule.Schedule
	// Stage is one schedule step with its parallelization strategy.
	Stage = schedule.Stage
	// Device describes a simulated GPU.
	Device = gpusim.Spec
	// Options configures the IOS search (strategy set and pruning).
	Options = core.Options
	// Pruning bounds the schedule space (r = max ops/group, s = max
	// groups/stage).
	Pruning = core.Pruning
	// Result is an optimized schedule plus search statistics.
	Result = core.Result
	// SearchStats reports the search cost of one optimization.
	SearchStats = core.Stats
)

// Strategy-set values for Options.Strategies.
const (
	// Both considers concurrent execution and operator merge (IOS-Both).
	Both = core.Both
	// ParallelOnly considers only concurrent execution (IOS-Parallel).
	ParallelOnly = core.ParallelOnly
	// MergeOnly considers only operator merge (IOS-Merge).
	MergeOnly = core.MergeOnly
)

// Preset devices (calibrated to public datasheets; see internal/gpusim).
var (
	// V100 is the paper's primary evaluation GPU.
	V100 = gpusim.TeslaV100
	// K80 is the low-end GPU of the device-specialization study.
	K80 = gpusim.TeslaK80
	// RTX2080Ti is the Turing GPU of Appendix B.
	RTX2080Ti = gpusim.RTX2080Ti
	// GTX1080 and GTX980Ti are the Figure 1 trend devices.
	GTX1080  = gpusim.GTX1080
	GTX980Ti = gpusim.GTX980Ti
	// A100 is a forward-looking device mentioned in the introduction.
	A100 = gpusim.TeslaA100
)

// DefaultPruning is the paper's evaluation setting (r = 3, s = 8).
var DefaultPruning = core.DefaultPruning

// Unpruned requests the exhaustive search.
var Unpruned = core.Unpruned

// ParseStrategySet maps "both", "parallel" or "merge" (or a figure legend
// such as "IOS-Merge") to its Options.Strategies value.
var ParseStrategySet = core.ParseStrategySet

// NewGraph returns an empty computation graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// LoadSchedule reconstructs a schedule recipe (the JSON emitted by
// Schedule.MarshalJSON, cmd/iosopt, or the serving API) against the given
// graph, rebinding its stages by node name. The result is validated by
// the first Measure; call Schedule.Validate directly for an upfront
// feasibility check.
func LoadSchedule(data []byte, g *Graph) (*Schedule, error) { return schedule.FromJSON(data, g) }

// SequentialSchedule returns the paper's sequential baseline: operators
// one by one in topological order.
func SequentialSchedule(g *Graph) (*Schedule, error) { return baseline.Sequential(g) }

// GreedySchedule returns the paper's greedy baseline: every ready operator
// runs in the current stage.
func GreedySchedule(g *Graph) (*Schedule, error) { return baseline.Greedy(g) }
