package ios_test

import (
	"context"
	"strings"
	"testing"

	"ios"
	"ios/internal/core"
	"ios/internal/profile"
)

func TestQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test: build, optimize, measure.
	ctx := context.Background()
	g := ios.Figure2Block(1)
	eng := ios.NewEngine(ios.V100)
	res, err := eng.Optimize(ctx, g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.NumStages() == 0 {
		t.Fatal("empty schedule")
	}
	lat, err := eng.Measure(ctx, g, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ios.SequentialSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	seqLat, err := eng.Measure(ctx, g, seq)
	if err != nil {
		t.Fatal(err)
	}
	if lat >= seqLat {
		t.Errorf("IOS (%g) not faster than sequential (%g)", lat, seqLat)
	}
	thr, err := eng.Throughput(ctx, g, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 {
		t.Error("nonpositive throughput")
	}
}

func TestCustomGraphAPI(t *testing.T) {
	g := ios.NewGraph("custom")
	in := g.Input("in", ios.Shape{N: 1, C: 16, H: 14, W: 14})
	a := g.Conv("a", in, ios.ConvOpts{Out: 32, Kernel: 3})
	b := g.Conv("b", in, ios.ConvOpts{Out: 32, Kernel: 5})
	g.Concat("out", a, b)
	res, err := ios.NewEngine(ios.RTX2080Ti).Optimize(context.Background(), g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteVerifiesSchedules(t *testing.T) {
	g := ios.NewGraph("exec")
	in := g.Input("in", ios.Shape{N: 1, C: 6, H: 8, W: 8})
	a := g.Conv("a", in, ios.ConvOpts{Out: 4, Kernel: 1})
	b := g.Conv("b", in, ios.ConvOpts{Out: 4, Kernel: 3})
	g.Concat("out", a, b)
	res, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ios.Execute(res.Schedule, "out", 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8*8*8 {
		t.Errorf("output len = %d", len(data))
	}
	if _, err := ios.Execute(res.Schedule, "nope", 42); err == nil {
		t.Error("unknown output node accepted")
	} else if !strings.Contains(err.Error(), "no node named") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDeviceSpecialization(t *testing.T) {
	// Table 3's premise through the public API: schedules differ or at
	// least measure differently across devices.
	g := ios.Figure2Block(1)
	resV, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resK, err := ios.NewEngine(ios.K80).Optimize(context.Background(), g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	onV, err := ios.NewEngine(ios.V100).Measure(context.Background(), g, resV.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	crossV, err := ios.NewEngine(ios.V100).Measure(context.Background(), g, resK.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if onV > crossV*(1+1e-9) {
		t.Errorf("V100-specialized schedule (%g) worse on V100 than K80 schedule (%g)", onV, crossV)
	}
}

func TestZooBuildersExported(t *testing.T) {
	for _, build := range []func(int) *ios.Graph{
		ios.InceptionV3, ios.RandWire, ios.NasNetA, ios.SqueezeNet,
		ios.ResNet34, ios.ResNet50, ios.VGG16, ios.Figure2Block,
	} {
		g := build(1)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestStrategyVariants(t *testing.T) {
	g := ios.Figure2Block(1)
	for _, s := range []struct {
		name string
		set  ios.Options
	}{
		{"both", ios.Options{Strategies: ios.Both}},
		{"parallel", ios.Options{Strategies: ios.ParallelOnly}},
		{"merge", ios.Options{Strategies: ios.MergeOnly}},
	} {
		res, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, s.set)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
}

func TestProfilerReuse(t *testing.T) {
	prof := profile.New(ios.V100)
	g := ios.Figure2Block(1)
	if _, err := core.OptimizeContext(context.Background(), g, prof, ios.Options{}); err != nil {
		t.Fatal(err)
	}
	m := prof.Measurements
	// A second run over the same graph hits the shared cache; the DP's
	// uncached fast path still measures, so just assert it works and the
	// count advances monotonically.
	if _, err := core.OptimizeContext(context.Background(), g, prof, ios.Options{}); err != nil {
		t.Fatal(err)
	}
	if prof.Measurements < m {
		t.Error("measurement counter went backwards")
	}
}

// TestProfilerReuseAcrossGraphs: node IDs are unique within one graph
// only, so a profiler that has searched SqueezeNet must not answer for
// Inception V3's nodes from SqueezeNet's lowerings under the same IDs (it
// used to: 3.855 ms for Inception's sequential schedule instead of 4.592,
// and a different, worse IOS schedule). Latencies and schedule are
// bit-equal to a fresh profiler's.
func TestProfilerReuseAcrossGraphs(t *testing.T) {
	ctx := context.Background()
	run := func(prof *profile.Profiler) (seqLat, iosLat float64, sched string) {
		t.Helper()
		g := ios.InceptionV3(1)
		seq, err := ios.SequentialSchedule(g)
		if err != nil {
			t.Fatal(err)
		}
		if seqLat, err = prof.MeasureSchedule(seq); err != nil {
			t.Fatal(err)
		}
		res, err := core.OptimizeContext(ctx, g, prof, ios.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if iosLat, err = prof.MeasureSchedule(res.Schedule); err != nil {
			t.Fatal(err)
		}
		js, err := res.Schedule.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return seqLat, iosLat, string(js)
	}
	reused := profile.New(ios.V100)
	if _, err := core.OptimizeContext(ctx, ios.SqueezeNet(1), reused, ios.Options{}); err != nil {
		t.Fatal(err)
	}
	seqLat, iosLat, sched := run(reused)
	wantSeq, wantIOS, wantSched := run(profile.New(ios.V100))
	if seqLat != wantSeq || iosLat != wantIOS {
		t.Errorf("after SqueezeNet, Inception V3 measures %.6g ms sequential and %.6g ms scheduled; a fresh profiler %.6g and %.6g",
			seqLat*1e3, iosLat*1e3, wantSeq*1e3, wantIOS*1e3)
	}
	if sched != wantSched {
		t.Error("after SqueezeNet, the search returns another Inception V3 schedule than on a fresh profiler")
	}
}

func TestExecuteMergeSchedule(t *testing.T) {
	// Force a merge stage through the MergeOnly variant and verify the
	// stacked-kernel execution on real tensors through the public API.
	g := ios.NewGraph("merge-exec")
	in := g.Input("in", ios.Shape{N: 1, C: 6, H: 8, W: 8})
	a := g.Conv("a", in, ios.ConvOpts{Out: 4, Kernel: 1})
	b := g.Conv("b", in, ios.ConvOpts{Out: 4, Kernel: 3})
	g.Concat("out", a, b)
	res, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{Strategies: ios.MergeOnly})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ios.Execute(res.Schedule, "out", 11); err != nil {
		t.Fatal(err)
	}
}

func TestPruningOption(t *testing.T) {
	g := ios.Figure2Block(1)
	res, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{Pruning: ios.Pruning{R: 1, S: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Schedule.Stages {
		if len(st.Groups) > 2 {
			t.Errorf("pruning s=2 violated: %d groups", len(st.Groups))
		}
		for _, grp := range st.Groups {
			if len(grp) > 1 && len(st.Groups) > 1 {
				t.Errorf("pruning r=1 violated in parallel stage: %v", st)
			}
		}
	}
}
