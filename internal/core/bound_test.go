package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"ios/internal/bitset"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// boundDevices are the presets the stage bound must hold on.
var boundDevices = []gpusim.Spec{
	gpusim.TeslaV100, gpusim.TeslaK80, gpusim.TeslaA100,
	gpusim.RTX2080Ti, gpusim.GTX1080, gpusim.GTX980Ti,
}

// boundLowerings are the lowering options the stage bound must hold under:
// the IOS engine's own, each option the comparator frameworks set, all of
// them together, and a host whose launches are slow.
func boundLowerings() []struct {
	name string
	opts profile.Options
} {
	quality := func(op graph.Op) float64 {
		switch op.Kind {
		case graph.OpSepConv:
			return 2
		case graph.OpConv:
			return 1.3
		}
		return 1
	}
	return []struct {
		name string
		opts profile.Options
	}{
		{"ios", profile.Options{}},
		{"dispatch", profile.Options{ExtraLaunchOverhead: 12e-6}},
		{"launch", profile.Options{LaunchOverheadScale: 0.55}},
		{"unfused", profile.Options{UnfuseActivations: true}},
		{"quality", profile.Options{KernelQuality: quality}},
		{"all-four", profile.Options{UnfuseActivations: true, ExtraLaunchOverhead: 0.5e-6, LaunchOverheadScale: 0.7, KernelQuality: quality}},
		{"slow-host", profile.Options{ExtraLaunchOverhead: 40e-6, LaunchOverheadScale: 3}},
	}
}

// checkBound holds the engine's stage bound to what the simulator measures
// on every transition (S, S') of the block, enumerated as the search does —
// the per-group sums depend on the order the enumerator merged them in, so
// every state's endings are checked, not each ending once. Per ending, both
// strategies are measured where they apply: the concurrent-only bound (what
// a ParallelOnly search uses) must not exceed the concurrent latency, the
// merge roofline not the merged one, and the bound a Both search uses not
// the smaller of the two. A counterexample fails at once with both numbers
// in full. It returns the number of transitions checked.
func checkBound(t *testing.T, where string, b *graph.Block, prof *profile.Profiler, prune Pruning) int {
	t.Helper()
	e := newEngine(b, prof, Options{Pruning: prune}.Canonical(), new(scratch))
	defer e.close()
	if !e.bounded {
		t.Fatalf("%s: a simulator profiler does not bound", where)
	}
	if err := e.discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := e.workers[0]
	type latencies struct{ conc, merge float64 }
	measured := make(map[bitset.Set]latencies)
	measure := func(st schedule.Stage) float64 {
		lat, err := prof.MeasureStage(st)
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	transitions := 0
	for _, s := range e.states {
		w.enum.forEach(b, s, prune, e.solo, func(ending bitset.Set, comps []bitset.Set) bool {
			transitions++
			nodes := e.nodesOf(ending)
			m, ok := measured[ending]
			if !ok {
				var groups [][]*graph.Node
				for _, gs := range groupsOf(b, ending) {
					groups = append(groups, e.nodesOf(gs))
				}
				m = latencies{conc: measure(schedule.Stage{Strategy: schedule.Concurrent, Groups: groups}), merge: math.Inf(1)}
				if schedule.CanMerge(nodes) {
					m.merge = measure(schedule.Stage{Strategy: schedule.Merge, Groups: [][]*graph.Node{nodes}})
				}
				measured[ending] = m
			}
			e.opts.Strategies = ParallelOnly
			conc := w.lowerBound(ending, comps)
			e.opts.Strategies = Both
			both := w.lowerBound(ending, comps)
			if conc > m.conc {
				t.Fatalf("%s: state %v ending %v: concurrent bound %v exceeds the measured %v", where, s, ending, conc, m.conc)
			}
			if lat := math.Min(m.conc, m.merge); both > lat {
				t.Fatalf("%s: state %v ending %v: bound %v exceeds the measured %v (concurrent %v, merged %v)", where, s, ending, both, lat, m.conc, m.merge)
			}
			if !math.IsInf(m.merge, 1) {
				roof, ok := prof.MergeLowerBound(nodes)
				if !ok || roof*(1-boundMargin) > m.merge {
					t.Fatalf("%s: state %v ending %v: merge roofline %v (ok %v) exceeds the measured %v", where, s, ending, roof, ok, m.merge)
				}
			}
			return true
		})
	}
	return transitions
}

// TestPropertyBoundIsAdmissible is the fact the search's skip rests on: on
// the simulator, the stage bound lowerBound computes never exceeds the
// latency MeasureStage reports, as float64 — over every ending of every
// state of the random-DAG generators' blocks and of the zoo's, on six device
// presets and under every lowering option, for both strategies. The two
// search-heavy networks, RandWire and NasNet, are checked on their hardest
// blocks here and whole under IOS_FULL_EQUIV=1; -short keeps the zoo to the
// IOS lowering and those two to the V100.
func TestPropertyBoundIsAdmissible(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine walks every transition: nothing for the race detector, 50 s of its slowdown")
	}
	type fixture struct {
		name   string
		blocks []*graph.Block
		prune  Pruning
	}
	whole := func(name string, g *graph.Graph, prune Pruning) fixture {
		blocks, err := g.Partition(0)
		if err != nil {
			t.Fatal(err)
		}
		return fixture{name, blocks, prune}
	}
	var random []fixture
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 16; i++ {
		random = append(random, whole(fmt.Sprintf("random %d", i), randomGraph(rng), Pruning{}))
	}
	for seed := int64(1); seed <= 3; seed++ {
		random = append(random, whole(fmt.Sprintf("RandWireSized(4, seed %d)", seed), models.RandWireSized(1, 4, seed), Pruning{}))
	}
	var zoo []fixture
	for _, z := range models.Zoo() {
		if z.Name != "randwire" && z.Name != "nasnet" {
			zoo = append(zoo, whole(z.Name, z.Build(1), Pruning{}))
		}
	}
	var heavy []fixture
	for _, build := range []models.Builder{models.RandWire, models.NasNetA} {
		g := build(1)
		if os.Getenv("IOS_FULL_EQUIV") != "" {
			heavy = append(heavy, whole(g.Name, g, DefaultPruning))
			continue
		}
		b, err := HardestBlock(g)
		if err != nil {
			t.Fatal(err)
		}
		heavy = append(heavy, fixture{g.Name + " hardest block", []*graph.Block{b}, DefaultPruning})
	}

	transitions := 0
	check := func(fx fixture, spec gpusim.Spec, lowering string, opts profile.Options) {
		for _, b := range fx.blocks {
			where := fmt.Sprintf("%s block %d, %s, %s lowering", fx.name, b.Index, spec.Name, lowering)
			transitions += checkBound(t, where, b, profile.NewWithOptions(spec, opts), fx.prune)
		}
	}
	for d, spec := range boundDevices {
		for i, l := range boundLowerings() {
			for _, fx := range random {
				check(fx, spec, l.name, l.opts)
			}
			if testing.Short() && i > 0 {
				continue
			}
			for _, fx := range zoo {
				check(fx, spec, l.name, l.opts)
			}
		}
		if testing.Short() && d > 0 {
			continue
		}
		for _, fx := range heavy {
			check(fx, spec, "ios", profile.Options{})
		}
	}
	t.Logf("%d transitions: no bound above its measurement", transitions)
}

// opaqueBackend is the simulator behind a wrapper, as a test's instrumented
// backend is: the profiler cannot know that what it wraps is monotone.
type opaqueBackend struct{ profile.Backend }

func (b opaqueBackend) Fork() profile.Backend { return opaqueBackend{b.Backend.Fork()} }

// TestUnboundedBackendMeasuresAsTheReference: a profiler over any backend
// but SimBackend itself claims no bound, and its search measures exactly
// the endings the reference recursion does — at one worker and at four —
// with the same schedules, states and transitions.
func TestUnboundedBackendMeasuresAsTheReference(t *testing.T) {
	pool, _ := reuseBlocks(t)
	for _, build := range []models.Builder{models.Figure2Block, models.InceptionE, models.SqueezeNet} {
		g := build(1)
		blocks, err := g.Partition(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			pool = append(pool, graphBlock{g, b})
		}
	}
	for _, gb := range pool {
		refProf := v100Profiler()
		refStages, refStats, err := optimizeBlockReference(gb.Block, refProf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			prof := profile.NewWithBackend(opaqueBackend{profile.SimBackend(gpusim.TeslaV100)}, profile.Options{})
			if prof.CanBound() {
				t.Fatal("a profiler over a wrapped simulator claims to bound")
			}
			stages, stats, err := OptimizeBlockContext(context.Background(), gb.Block, prof, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s block %d workers %d", gb.g.Name, gb.Index, workers)
			if got, want := stagesString(gb.g, stages), stagesString(gb.g, refStages); got != want {
				t.Fatalf("%s: schedule\n%s\nreference\n%s", where, got, want)
			}
			if stats.States != refStats.States || stats.Transitions != refStats.Transitions || stats.Measurements != refProf.Measurements {
				t.Errorf("%s: %d states, %d transitions, %d measurements; the reference %d, %d, %d",
					where, stats.States, stats.Transitions, stats.Measurements, refStats.States, refStats.Transitions, refProf.Measurements)
			}
		}
	}
}

// TestBoundHalvesHardestBlockMeasurements is the skip's tripwire: on
// RandWire's hardest block, one worker and no measurement cache, the
// search runs at most half the simulator measurements the reference
// recursion runs (5,530 of 13,150 when the bound went in). A search that
// stops skipping — a bound that reads too high to use, a gate that turns
// off for the simulator — measures all of them.
func TestBoundHalvesHardestBlockMeasurements(t *testing.T) {
	b, err := HardestBlock(models.RandWire(1))
	if err != nil {
		t.Fatal(err)
	}
	refProf := v100Profiler()
	if _, _, err := optimizeBlockReference(b, refProf, Options{}); err != nil {
		t.Fatal(err)
	}
	_, stats, err := OptimizeBlockContext(context.Background(), b, v100Profiler(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d measurements, the reference %d", stats.Measurements, refProf.Measurements)
	if 2*stats.Measurements > refProf.Measurements {
		t.Errorf("the search ran %d measurements, over half the reference's %d: is the bound skipping nothing?", stats.Measurements, refProf.Measurements)
	}
}
