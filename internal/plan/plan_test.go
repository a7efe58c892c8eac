package plan

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/profile"
)

// testGraph builds a small multi-branch block whose schedule space is
// non-trivial (three parallel convolutions) but searches in microseconds.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("planette")
	in := g.Input("in", graph.Shape{N: 1, C: 16, H: 16, W: 16})
	a := g.Conv("a", in, graph.ConvOpts{Out: 16, Kernel: 3})
	b := g.Conv("b", in, graph.ConvOpts{Out: 16, Kernel: 1})
	c := g.Conv("c", in, graph.ConvOpts{Out: 16, Kernel: 5})
	g.Concat("cat", a, b, c)
	if err := g.Validate(); err != nil {
		t.Fatalf("test graph: %v", err)
	}
	return g
}

// forkFactory returns a NewProfiler callback whose profilers all share
// one structural measurement cache, as Build's contract asks.
func forkFactory() func() *profile.Profiler {
	root := profile.New(gpusim.TeslaV100)
	root.SetMeasureCache(measure.NewCache())
	return root.Fork
}

func buildTestPlan(t *testing.T, batches []int) *Plan {
	t.Helper()
	p, err := Build(context.Background(), BuildConfig{
		Graph:       testGraph(t),
		Batches:     batches,
		Device:      gpusim.TeslaV100.Name,
		Opts:        core.Options{},
		NewProfiler: forkFactory(),
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuildPlan(t *testing.T) {
	p := buildTestPlan(t, []int{4, 1, 16, 4}) // unsorted + duplicate on purpose
	if got, want := p.Batches(), []int{1, 4, 16}; len(got) != len(want) {
		t.Fatalf("batches = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batches = %v, want %v", got, want)
			}
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Model != "planette" || p.Device != gpusim.TeslaV100.Name {
		t.Errorf("plan identity = %q/%q", p.Model, p.Device)
	}
	if p.Opts != (core.Options{}).Fingerprint() {
		t.Errorf("plan opts = %q", p.Opts)
	}
	for i, pt := range p.Points {
		if pt.Latency <= 0 {
			t.Errorf("point %d latency = %v", i, pt.Latency)
		}
		if pt.Graph.Batch() != pt.Batch {
			t.Errorf("point %d graph batch = %d, want %d", i, pt.Graph.Batch(), pt.Batch)
		}
	}
	if err := p.DiagonalWins(); err != nil {
		t.Errorf("DiagonalWins: %v", err)
	}
	// The DP is deterministic, so a second sweep is bit-identical.
	q := buildTestPlan(t, []int{1, 4, 16})
	for i := range p.Points {
		if p.Points[i].Schedule.String() != q.Points[i].Schedule.String() {
			t.Errorf("point %d schedules differ across builds", i)
		}
		for j := range p.Points {
			if p.Latency[i][j] != q.Latency[i][j] {
				t.Errorf("latency[%d][%d] differs across builds: %v vs %v", i, j, p.Latency[i][j], q.Latency[i][j])
			}
		}
	}
}

func TestRoute(t *testing.T) {
	p := buildTestPlan(t, []int{1, 4, 16})

	pt, pen, exact := p.Route(4)
	if !exact || pt.Batch != 4 || pen != 1 {
		t.Errorf("Route(4) = batch %d penalty %v exact %v", pt.Batch, pen, exact)
	}

	pt, pen, exact = p.Route(13) // nearest is 16 (distance 3 vs 9)
	if exact || pt.Batch != 16 {
		t.Errorf("Route(13) = batch %d exact %v, want nearest 16", pt.Batch, exact)
	}
	if want := p.EstimatePenalty(2, 13); pen != want {
		t.Errorf("Route(13) penalty = %v, want EstimatePenalty = %v", pen, want)
	}
	if pen < 1-1e-9 {
		t.Errorf("Route(13) penalty = %v, expected >= 1 (reuse can't beat specialization)", pen)
	}

	// Ties prefer the smaller planned batch; 10 is equidistant from 4 and 16.
	if pt, _, _ := p.Route(10); pt.Batch != 4 {
		t.Errorf("Route(10) tie broke to batch %d, want 4", pt.Batch)
	}
	// Out-of-range batches clamp to the ends.
	if pt, _, _ := p.Route(100); pt.Batch != 16 {
		t.Errorf("Route(100) = batch %d, want 16", pt.Batch)
	}
}

func TestEstimatePenalty(t *testing.T) {
	p := buildTestPlan(t, []int{1, 4, 16})
	// At planned batches the estimate is the measured matrix penalty.
	for i := range p.Points {
		for j, pt := range p.Points {
			if got, want := p.EstimatePenalty(i, pt.Batch), p.Penalty(i, j); math.Abs(got-want) > 1e-12 {
				t.Errorf("EstimatePenalty(%d, b%d) = %v, want matrix %v", i, pt.Batch, got, want)
			}
		}
	}
	// Between planned batches the estimate lies between the bracketing
	// interpolants and is finite.
	got := p.EstimatePenalty(0, 8)
	if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
		t.Errorf("EstimatePenalty(0, 8) = %v", got)
	}
	// Outside the planned range the estimate clamps to the end points.
	if got, want := p.EstimatePenalty(0, 64), p.Penalty(0, 2); got != want {
		t.Errorf("EstimatePenalty(0, 64) = %v, want clamped %v", got, want)
	}
}

func TestBuildErrors(t *testing.T) {
	g := testGraph(t)
	base := BuildConfig{Graph: g, Device: "d", NewProfiler: forkFactory()}

	cfg := base
	cfg.Batches = nil
	if _, err := Build(context.Background(), cfg); err == nil {
		t.Error("Build accepted an empty sweep")
	}
	cfg = base
	cfg.Batches = []int{1, 0}
	if _, err := Build(context.Background(), cfg); err == nil {
		t.Error("Build accepted batch 0")
	}
	cfg = base
	cfg.Batches = []int{1}
	cfg.NewProfiler = nil
	if _, err := Build(context.Background(), cfg); err == nil {
		t.Error("Build accepted a nil profiler factory")
	}
	cfg = base
	cfg.Graph = nil
	cfg.Batches = []int{1}
	if _, err := Build(context.Background(), cfg); err == nil {
		t.Error("Build accepted a nil graph")
	}
}

func TestBuildCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Build(ctx, BuildConfig{
		Graph:       testGraph(t),
		Batches:     []int{1, 2},
		Device:      gpusim.TeslaV100.Name,
		NewProfiler: forkFactory(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Build on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestPlanRoundTrip(t *testing.T) {
	p := buildTestPlan(t, []int{1, 4, 16})
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	q, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("loaded plan invalid: %v", err)
	}
	if q.Model != p.Model || q.Device != p.Device || q.Opts != p.Opts {
		t.Errorf("identity lost: %q/%q/%q", q.Model, q.Device, q.Opts)
	}
	for i := range p.Points {
		if p.Points[i].Batch != q.Points[i].Batch {
			t.Errorf("point %d batch %d != %d", i, p.Points[i].Batch, q.Points[i].Batch)
		}
		if p.Points[i].Schedule.String() != q.Points[i].Schedule.String() {
			t.Errorf("point %d schedule changed across round trip", i)
		}
		for j := range p.Points {
			if p.Latency[i][j] != q.Latency[i][j] {
				t.Errorf("latency[%d][%d] changed: %v vs %v", i, j, p.Latency[i][j], q.Latency[i][j])
			}
		}
	}
	// Routing behaves identically on the reloaded plan.
	pt, pen, exact := q.Route(13)
	wantPt, wantPen, wantExact := p.Route(13)
	if pt.Batch != wantPt.Batch || pen != wantPen || exact != wantExact {
		t.Errorf("Route diverged after round trip: (%d %v %v) vs (%d %v %v)",
			pt.Batch, pen, exact, wantPt.Batch, wantPen, wantExact)
	}
}

// TestSavedBytesAreDeterministic: two sweeps of one graph, each over its
// own measurement cache and given its batches in a different order, save
// and render the same bytes.
func TestSavedBytesAreDeterministic(t *testing.T) {
	var saved, rendered [2]bytes.Buffer
	for i, batches := range [][]int{{1, 4, 16}, {16, 4, 1, 4}} {
		p := buildTestPlan(t, batches)
		if err := p.Save(&saved[i]); err != nil {
			t.Fatal(err)
		}
		p.Render(&rendered[i])
	}
	if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
		t.Errorf("Save differs between the two sweeps:\n%s\nvs\n%s", saved[0].Bytes(), saved[1].Bytes())
	}
	if !bytes.Equal(rendered[0].Bytes(), rendered[1].Bytes()) {
		t.Errorf("Render differs between the two sweeps:\n%s\nvs\n%s", rendered[0].Bytes(), rendered[1].Bytes())
	}
}

func TestSaveLoadFile(t *testing.T) {
	p := buildTestPlan(t, []int{1, 2})
	path := t.TempDir() + "/plan.json"
	if err := p.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	p := buildTestPlan(t, []int{1, 2})
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"garbage":          "not json",
		"empty":            "{}",
		"version mismatch": strings.Replace(good, "\"version\": 1", "\"version\": 99", 1),
		"truncated":        good[:len(good)/2],
		"negative latency": strings.Replace(good, "\"latency_seconds\": [", "\"latency_seconds\": [[-1, -1], [-1, -1]], \"ignore\": [", 1),
		// The graph builder panics on a repeated name; Load must not.
		"repeated node name": strings.Replace(good, "\"name\": \"b\"", "\"name\": \"a\"", 1),
	}
	for name, data := range cases {
		if data == good {
			t.Fatalf("case %q: mutation did not apply", name)
		}
		if _, err := Load(strings.NewReader(data)); err == nil {
			t.Errorf("Load accepted %s", name)
		}
	}
}

func TestValidateCatchesBrokenPlans(t *testing.T) {
	fresh := func() *Plan { return buildTestPlan(t, []int{1, 2}) }

	p := fresh()
	p.Latency[0] = p.Latency[0][:1]
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a ragged matrix")
	}
	p = fresh()
	p.Latency[1][0] = math.NaN()
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted NaN latency")
	}
	p = fresh()
	p.Points[0].Batch = 2 // duplicates point 1, breaks ascending order
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted non-ascending batches")
	}
	p = fresh()
	p.Points[0].Latency *= 2
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted diagonal disagreement")
	}
	p = fresh()
	p.Points = nil
	p.Latency = nil
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted an empty plan")
	}
}

func TestRenderMentionsBatches(t *testing.T) {
	p := buildTestPlan(t, []int{1, 4})
	var buf bytes.Buffer
	p.Render(&buf)
	out := buf.String()
	for _, want := range []string{"b1", "b4", "penalty", p.Model} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
}
