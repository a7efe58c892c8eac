package profile

import (
	"math"
	"testing"

	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/schedule"
)

func fig2Nodes(t *testing.T) (*graph.Graph, map[string]*graph.Node) {
	t.Helper()
	g := models.Figure2Block(1)
	m := map[string]*graph.Node{}
	for _, n := range g.Nodes {
		m[n.Name] = n
	}
	return g, m
}

func TestLowerConvKernel(t *testing.T) {
	g, n := fig2Nodes(t)
	_ = g
	ks := LowerNode(n["a"], Options{})
	if len(ks) != 1 {
		t.Fatalf("conv lowered to %d kernels", len(ks))
	}
	k := ks[0]
	if k.FLOPs != graph.FLOPs(n["a"]) {
		t.Errorf("kernel FLOPs = %g, want %g", k.FLOPs, graph.FLOPs(n["a"]))
	}
	if k.Bytes != graph.MemoryBytes(n["a"]) {
		t.Errorf("kernel bytes = %g", k.Bytes)
	}
	if k.Blocks != gpusim.GridFor(n["a"].Output.Elems()) {
		t.Errorf("kernel blocks = %d", k.Blocks)
	}
}

func TestLowerSepConvTwoKernels(t *testing.T) {
	g := graph.New("sep")
	in := g.Input("in", graph.Shape{N: 1, C: 8, H: 16, W: 16})
	sc := g.SepConv("sc", in, graph.ConvOpts{Out: 16, Kernel: 3})
	ks := LowerNode(sc, Options{})
	if len(ks) != 2 {
		t.Fatalf("sepconv lowered to %d kernels", len(ks))
	}
	total := ks[0].FLOPs + ks[1].FLOPs
	if math.Abs(total-graph.FLOPs(sc)) > 1 {
		t.Errorf("sepconv kernel FLOPs %g != op FLOPs %g", total, graph.FLOPs(sc))
	}
}

func TestLowerIdentityFree(t *testing.T) {
	g := graph.New("id")
	in := g.Input("in", graph.Shape{N: 1, C: 4, H: 4, W: 4})
	id := g.Identity("i", in)
	if ks := LowerNode(id, Options{}); len(ks) != 0 {
		t.Errorf("identity lowered to %d kernels", len(ks))
	}
}

func TestUnfusedActivationAddsKernel(t *testing.T) {
	g, n := fig2Nodes(t)
	_ = g
	ks := LowerNode(n["a"], Options{UnfuseActivations: true})
	if len(ks) != 2 || ks[1].FLOPs != float64(n["a"].Output.Elems()) {
		t.Errorf("unfused lowering = %+v", ks)
	}
}

func TestKernelQualityScalesWork(t *testing.T) {
	g, n := fig2Nodes(t)
	_ = g
	base := LowerNode(n["a"], Options{})[0]
	fast := LowerNode(n["a"], Options{KernelQuality: func(graph.Op) float64 { return 2 }})[0]
	if math.Abs(fast.FLOPs*2-base.FLOPs) > 1 {
		t.Errorf("quality 2 kernel FLOPs = %g, want %g", fast.FLOPs, base.FLOPs/2)
	}
}

func TestCanMerge(t *testing.T) {
	g, n := fig2Nodes(t)
	_ = g
	// a, c, d share the input; a and c have identical shapes, d differs
	// in channels only — all mergeable. b consumes a different tensor.
	if !schedule.CanMerge([]*graph.Node{n["a"], n["c"]}) {
		t.Error("a,c should merge")
	}
	if !schedule.CanMerge([]*graph.Node{n["a"], n["c"], n["d"]}) {
		t.Error("a,c,d should merge")
	}
	if schedule.CanMerge([]*graph.Node{n["a"], n["b"]}) {
		t.Error("a,b must not merge (different inputs)")
	}
	if schedule.CanMerge([]*graph.Node{n["a"]}) {
		t.Error("singleton merge is meaningless")
	}
	if schedule.CanMerge([]*graph.Node{n["a"], n["concat"]}) {
		t.Error("conv+concat must not merge")
	}
}

func TestCanMergeRejectsStrideMismatch(t *testing.T) {
	g := graph.New("strides")
	in := g.Input("in", graph.Shape{N: 1, C: 4, H: 8, W: 8})
	a := g.Conv("a", in, graph.ConvOpts{Out: 4, Kernel: 3})
	b := g.Conv("b", in, graph.ConvOpts{Out: 4, Kernel: 3, Stride: 2})
	if schedule.CanMerge([]*graph.Node{a, b}) {
		t.Error("stride mismatch must not merge")
	}
}

func TestCanMergeRejectsValidPadding(t *testing.T) {
	g := graph.New("pads")
	in := g.Input("in", graph.Shape{N: 1, C: 4, H: 8, W: 8})
	a := g.Conv("a", in, graph.ConvOpts{Out: 4, Kernel: 3})
	b := g.Conv("b", in, graph.ConvOpts{Out: 4, Kernel: 3, Valid: true})
	if schedule.CanMerge([]*graph.Node{a, b}) {
		t.Error("valid-padding conv must not merge")
	}
}

func TestMergedKernelAccounting(t *testing.T) {
	g := graph.New("merged")
	in := g.Input("in", graph.Shape{N: 1, C: 8, H: 10, W: 10})
	a := g.Conv("a", in, graph.ConvOpts{Out: 4, Kernel: 1})
	b := g.Conv("b", in, graph.ConvOpts{Out: 4, Kernel: 3})
	g.Concat("cat", a, b)
	ks, err := MergedKernels([]*graph.Node{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Consumers form a single concat in order: split is free.
	if len(ks) != 1 {
		t.Fatalf("merged lowering = %d kernels, want 1 (free split)", len(ks))
	}
	// Padded compute: both kernels become 3x3 over 8 output channels.
	want := 2.0 * 8 * 3 * 3 * float64(1*8*10*10)
	if math.Abs(ks[0].FLOPs-want) > 1 {
		t.Errorf("merged FLOPs = %g, want %g", ks[0].FLOPs, want)
	}
	// The merged kernel reads the input once; two separate kernels read
	// it twice.
	sep := LowerNode(a, Options{})[0].Bytes + LowerNode(b, Options{})[0].Bytes
	if ks[0].Bytes >= sep {
		t.Errorf("merged bytes %g not smaller than separate %g", ks[0].Bytes, sep)
	}
}

func TestMergedKernelSplitCost(t *testing.T) {
	g := graph.New("split")
	in := g.Input("in", graph.Shape{N: 1, C: 8, H: 10, W: 10})
	a := g.Conv("a", in, graph.ConvOpts{Out: 4, Kernel: 1})
	b := g.Conv("b", in, graph.ConvOpts{Out: 4, Kernel: 3})
	// Different consumers: split required.
	g.Conv("ca", a, graph.ConvOpts{Out: 4, Kernel: 1})
	g.Conv("cb", b, graph.ConvOpts{Out: 4, Kernel: 1})
	ks, err := MergedKernels([]*graph.Node{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 || ks[1].Name != "split" {
		t.Fatalf("merged lowering = %+v, want conv+split", ks)
	}
}

// TestMeasureStageCaching: a measurement is a pure function of the stage.
// The same stage measured twice on one profiler, on a fork of it, with its
// groups permuted, and with or without an attached measure.Cache returns
// identical bits; the cache is the only memo, and with it attached the
// backend runs once.
func TestMeasureStageCaching(t *testing.T) {
	_, n := fig2Nodes(t)
	st := schedule.Stage{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{n["a"]}, {n["d"]}}}
	permuted := schedule.Stage{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{n["d"]}, {n["a"]}}}
	lat := func(p *Profiler, st schedule.Stage) float64 {
		t.Helper()
		l, err := p.MeasureStage(st)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	bare := New(gpusim.TeslaV100)
	want := lat(bare, st)
	cached := New(gpusim.TeslaV100)
	cached.SetMeasureCache(measure.NewCache())
	for _, c := range []struct {
		p    *Profiler
		runs int // of the backend: once per call without a cache (want's included), once in all with it
	}{{bare, 6}, {cached, 1}} {
		p, fork := c.p, c.p.Fork()
		for i, got := range []float64{lat(p, st), lat(p, st), lat(p, permuted), lat(fork, st), lat(fork, permuted)} {
			if got != want {
				t.Errorf("measurement %d = %v, want %v (cache attached: %v)", i, got, want, p.mcache != nil)
			}
		}
		if runs := p.Measurements + fork.Measurements; runs != c.runs {
			t.Errorf("backend ran %d times, want %d (cache attached: %v)", runs, c.runs, p.mcache != nil)
		}
	}
}

func TestConcurrentFasterThanSerialHere(t *testing.T) {
	g, n := fig2Nodes(t)
	_ = g
	p := New(gpusim.TeslaV100)
	conc, err := p.MeasureStage(schedule.Stage{Strategy: schedule.Concurrent,
		Groups: [][]*graph.Node{{n["a"]}, {n["d"]}}})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := p.MeasureStage(schedule.Stage{Strategy: schedule.Concurrent,
		Groups: [][]*graph.Node{{n["a"], n["d"]}}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait: a and d are independent but in one group they serialize;
	// batch-1 kernels underfill the V100, so the concurrent split must
	// win.
	if conc >= serial {
		t.Errorf("concurrent %g not faster than serial %g at batch 1", conc, serial)
	}
}

func TestMeasureScheduleSumsStages(t *testing.T) {
	g, n := fig2Nodes(t)
	p := New(gpusim.TeslaV100)
	s := &schedule.Schedule{Graph: g, Stages: []schedule.Stage{
		{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{n["a"]}, {n["c"]}, {n["d"]}}},
		{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{n["b"]}}},
		{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{n["concat"]}}},
	}}
	total, err := p.MeasureSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, st := range s.Stages {
		l, err := p.MeasureStage(st)
		if err != nil {
			t.Fatal(err)
		}
		sum += l
	}
	if math.Abs(total-sum) > 1e-12 {
		t.Errorf("schedule latency %g != stage sum %g", total, sum)
	}
}

func TestProfileStageUtilization(t *testing.T) {
	g, n := fig2Nodes(t)
	_ = g
	p := New(gpusim.TeslaV100)
	prof, err := p.ProfileStage(schedule.Stage{Strategy: schedule.Concurrent,
		Groups: [][]*graph.Node{{n["a"]}, {n["d"]}}})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Utilization <= 0 || prof.Utilization > 1 {
		t.Errorf("utilization = %g", prof.Utilization)
	}
	if prof.GFLOPs <= 0 || prof.TFLOPSs <= 0 || prof.Latency <= 0 {
		t.Errorf("profile = %+v", prof)
	}
}

func TestTraceScheduleProducesWarpActivity(t *testing.T) {
	g, n := fig2Nodes(t)
	p := New(gpusim.TeslaV100)
	s := &schedule.Schedule{Graph: g, Stages: []schedule.Stage{
		{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{n["a"], n["b"]}, {n["c"]}, {n["d"]}}},
		{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{n["concat"]}}},
	}}
	lat, trace, err := p.TraceSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if trace.MeanWarps() <= 0 {
		t.Error("no warp activity recorded")
	}
	if math.Abs(trace.Duration()-lat) > 1e-9 {
		t.Errorf("trace duration %g != latency %g", trace.Duration(), lat)
	}
}

// TestTimelineScheduleMatchesMeasure: the recorded run of a schedule takes
// as long as MeasureSchedule says, and every kernel span — launch, start
// and end, each shifted by its stage's start — lies inside it.
func TestTimelineScheduleMatchesMeasure(t *testing.T) {
	g, n := fig2Nodes(t)
	p := New(gpusim.TeslaV100)
	s := &schedule.Schedule{Graph: g, Stages: []schedule.Stage{
		{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{n["a"], n["b"]}, {n["c"]}, {n["d"]}}},
		{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{n["concat"]}}},
	}}
	lat, tl, err := p.TimelineSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.MeasureSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-want) > 1e-12*want {
		t.Errorf("timeline latency %g, MeasureSchedule %g", lat, want)
	}
	if len(tl) == 0 {
		t.Fatal("no kernel spans recorded")
	}
	for _, sp := range tl {
		if sp.Launch < 0 || sp.Launch > sp.Start || sp.Start > sp.End || sp.End > lat {
			t.Errorf("span %+v outside [0, %g]", sp, lat)
		}
	}
}

func TestForkIsolation(t *testing.T) {
	p := New(gpusim.TeslaV100)
	f := p.Fork()
	if f.Spec().Name != p.Spec().Name {
		t.Error("fork changed device")
	}
	g, n := fig2Nodes(t)
	_ = g
	st := schedule.Stage{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{n["a"]}}}
	if _, err := f.MeasureStage(st); err != nil {
		t.Fatal(err)
	}
	if p.Measurements != 0 {
		t.Error("fork measurement leaked into parent")
	}
}

func TestMeasureSerialChainMatchesStage(t *testing.T) {
	// The serial-chain fast path must equal the full simulation of a
	// one-group concurrent stage exactly.
	g, n := fig2Nodes(t)
	_ = g
	p := New(gpusim.TeslaV100)
	chain := []*graph.Node{n["a"], n["b"], n["c"], n["d"], n["concat"]}
	fast := p.MeasureSerialChain(chain)
	slow, err := p.MeasureStage(schedule.Stage{
		Strategy: schedule.Concurrent,
		Groups:   [][]*graph.Node{chain},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast-slow) > 1e-15+1e-12*slow {
		t.Errorf("serial fast path %g != simulated %g", fast, slow)
	}
	// Cached second call: no new measurements.
	m := p.Measurements
	_ = p.MeasureSerialChain(chain)
	if p.Measurements != m {
		t.Error("solo durations not cached")
	}
}
