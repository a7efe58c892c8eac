package refexec

import (
	"context"
	"testing"

	"ios/internal/baseline"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/profile"
	"ios/internal/schedule"
	"ios/internal/tensor"
)

// runBoth executes the graph sequentially and under the given schedule
// with identical weights/input and returns the max divergence across all
// node outputs.
func runBoth(t *testing.T, s *schedule.Schedule, seed int64) float64 {
	t.Helper()
	g := s.Graph
	w := GenerateWeights(g, seed)
	inputs := map[string]*tensor.Tensor{}
	for _, n := range g.Nodes {
		if n.Op.Kind == graph.OpInput {
			inputs[n.Name] = tensor.Random(n.Output, seed+100+int64(n.ID))
		}
	}
	seq, err := RunSequential(g, w, inputs)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	sch, err := RunSchedule(s, w, inputs)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	var worst float64
	for _, n := range g.Nodes {
		a, b := seq[n.ID], sch[n.ID]
		if a == nil || b == nil {
			t.Fatalf("node %q missing output (seq %v, sched %v)", n.Name, a != nil, b != nil)
		}
		d, err := tensor.MaxAbsDiff(a, b)
		if err != nil {
			t.Fatalf("node %q: %v", n.Name, err)
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// smallFig2 is a reduced Figure-2 graph cheap enough for CPU execution.
func smallFig2() *graph.Graph {
	g := graph.New("small-fig2")
	in := g.Input("input", graph.Shape{N: 1, C: 8, H: 9, W: 9})
	a := g.Conv("a", in, graph.ConvOpts{Out: 8, Kernel: 3})
	b := g.Conv("b", a, graph.ConvOpts{Out: 12, Kernel: 3})
	c := g.Conv("c", in, graph.ConvOpts{Out: 8, Kernel: 3})
	d := g.Conv("d", in, graph.ConvOpts{Out: 12, Kernel: 3})
	g.Concat("concat", b, c, d)
	return g
}

func TestSequentialScheduleMatches(t *testing.T) {
	g := smallFig2()
	s, err := baseline.Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	if d := runBoth(t, s, 1); d > 1e-4 {
		t.Errorf("sequential schedule diverged by %g", d)
	}
}

func TestGreedyScheduleMatches(t *testing.T) {
	g := smallFig2()
	s, err := baseline.Greedy(g)
	if err != nil {
		t.Fatal(err)
	}
	if d := runBoth(t, s, 2); d > 1e-4 {
		t.Errorf("greedy schedule diverged by %g", d)
	}
}

func TestIOSScheduleMatches(t *testing.T) {
	g := smallFig2()
	res, err := core.OptimizeContext(context.Background(), g, profile.New(gpusim.TeslaV100), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := runBoth(t, res.Schedule, 3); d > 1e-4 {
		t.Errorf("IOS schedule diverged by %g", d)
	}
}

// TestMergeStageMatches hand-builds a merge schedule (1x1 and 3x3 convs
// sharing an input, as in Figure 10) and verifies the stacked padded
// kernel computes exactly the two original convolutions.
func TestMergeStageMatches(t *testing.T) {
	g := graph.New("merge")
	in := g.Input("input", graph.Shape{N: 2, C: 4, H: 7, W: 7})
	a := g.Conv("a", in, graph.ConvOpts{Out: 3, Kernel: 1})
	b := g.Conv("b", in, graph.ConvOpts{Out: 5, Kernel: 3})
	cat := g.Concat("cat", a, b)
	_ = cat
	s := &schedule.Schedule{Graph: g, Stages: []schedule.Stage{
		{Strategy: schedule.Merge, Groups: [][]*graph.Node{{a, b}}},
		{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{cat}}},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := runBoth(t, s, 4); d > 1e-4 {
		t.Errorf("merge schedule diverged by %g", d)
	}
}

func TestMergeAsymmetricKernels(t *testing.T) {
	// 1x3 and 3x1 merge to 3x3 (the Figure 10 f&g case).
	g := graph.New("merge-asym")
	in := g.Input("input", graph.Shape{N: 1, C: 4, H: 6, W: 6})
	f := g.Conv("f", in, graph.ConvOpts{Out: 3, KernelH: 3, KernelW: 1})
	gg := g.Conv("g", in, graph.ConvOpts{Out: 4, KernelH: 1, KernelW: 3})
	cat := g.Concat("cat", f, gg)
	s := &schedule.Schedule{Graph: g, Stages: []schedule.Stage{
		{Strategy: schedule.Merge, Groups: [][]*graph.Node{{f, gg}}},
		{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{cat}}},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := runBoth(t, s, 5); d > 1e-4 {
		t.Errorf("asymmetric merge diverged by %g", d)
	}
}

func TestScheduleWithSepConvAndPool(t *testing.T) {
	g := graph.New("mixed")
	in := g.Input("input", graph.Shape{N: 1, C: 6, H: 8, W: 8})
	a := g.SepConv("a", in, graph.ConvOpts{Out: 6, Kernel: 3})
	p := g.Pool("p", in, graph.PoolOpts{Kernel: 3, Stride: 1, Avg: true})
	add := g.Add("add", a, p)
	m := g.GlobalPool("gap", add)
	g.Matmul("fc", m, 4)
	res, err := core.OptimizeContext(context.Background(), g, profile.New(gpusim.TeslaV100), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := runBoth(t, res.Schedule, 6); d > 1e-4 {
		t.Errorf("mixed schedule diverged by %g", d)
	}
}

func TestSqueezeNetFireIOSchedule(t *testing.T) {
	// A real model block end-to-end on the reference executor: one fire
	// module with complex bypass at reduced resolution.
	g := graph.New("fire")
	in := g.Input("input", graph.Shape{N: 1, C: 10, H: 10, W: 10})
	sq := g.Conv("squeeze", in, graph.ConvOpts{Out: 4, Kernel: 1})
	e1 := g.Conv("e1", sq, graph.ConvOpts{Out: 8, Kernel: 1})
	e3 := g.Conv("e3", sq, graph.ConvOpts{Out: 8, Kernel: 3})
	cat := g.Concat("cat", e1, e3)
	byp := g.Conv("bypass", in, graph.ConvOpts{Out: 16, Kernel: 1, NoAct: true})
	g.Add("out", cat, byp)
	res, err := core.OptimizeContext(context.Background(), g, profile.New(gpusim.TeslaV100), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := runBoth(t, res.Schedule, 7); d > 1e-4 {
		t.Errorf("fire schedule diverged by %g", d)
	}
}

func TestRandWireStageSchedule(t *testing.T) {
	// Multi-input SepConvSum units under a real IOS schedule. (The zoo
	// RandWire is 224x224 — far too slow for the naive CPU conv — so
	// this uses a tiny random-stage-like graph with the same op mix.)
	g := tinyRandWire()
	res, err := core.OptimizeContext(context.Background(), g, profile.New(gpusim.TeslaV100), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := runBoth(t, res.Schedule, 8); d > 1e-4 {
		t.Errorf("randwire-like schedule diverged by %g", d)
	}
}

func tinyRandWire() *graph.Graph {
	g := graph.New("tiny-randwire")
	in := g.Input("input", graph.Shape{N: 1, C: 4, H: 8, W: 8})
	n0 := g.SepConv("n0", in, graph.ConvOpts{Out: 6, Kernel: 3, Stride: 2})
	n1 := g.SepConv("n1", in, graph.ConvOpts{Out: 6, Kernel: 3, Stride: 2})
	n2 := g.SepConvSum("n2", []*graph.Node{n0, n1}, graph.ConvOpts{Out: 6, Kernel: 3})
	n3 := g.SepConvSum("n3", []*graph.Node{n0, n2}, graph.ConvOpts{Out: 6, Kernel: 3})
	g.Add("out", n2, n3)
	return g
}

func TestMissingInputErrors(t *testing.T) {
	g := smallFig2()
	w := GenerateWeights(g, 1)
	if _, err := RunSequential(g, w, nil); err == nil {
		t.Error("missing input accepted")
	}
	s, err := baseline.Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSchedule(s, w, nil); err == nil {
		t.Error("missing input accepted by RunSchedule")
	}
}

func TestWrongInputShapeErrors(t *testing.T) {
	g := smallFig2()
	w := GenerateWeights(g, 1)
	bad := map[string]*tensor.Tensor{"input": tensor.Random(graph.Shape{N: 1, C: 8, H: 5, W: 5}, 1)}
	if _, err := RunSequential(g, w, bad); err == nil {
		t.Error("wrong input shape accepted")
	}
}
