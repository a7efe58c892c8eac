package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"ios/internal/bitset"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/profile"
)

// cachedProfiler returns a V100 profiler attached to the given structural
// measurement cache.
func cachedProfiler(c *measure.Cache) *profile.Profiler {
	p := profile.New(gpusim.TeslaV100)
	p.SetMeasureCache(c)
	return p
}

// TestMeasureCacheEquivalenceZoo is the cache's correctness bar: with the
// structural measurement cache attached, Optimize must return bit-identical
// schedules, costs, and state/transition statistics to the uncached oracle
// on every zoo network — only Measurements may drop. Both a cold cache
// (first search fills it) and a warm one (repeat search) are checked.
func TestMeasureCacheEquivalenceZoo(t *testing.T) {
	builders := []models.Builder{
		models.Figure2Block, models.InceptionE, models.SqueezeNet, models.InceptionV3,
	}
	if testing.Short() {
		builders = builders[:3]
	}
	for _, build := range builders {
		g := build(1)
		want, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{})
		if err != nil {
			t.Fatalf("%s: uncached: %v", g.Name, err)
		}
		cache := measure.NewCache()
		for _, phase := range []string{"cold", "warm"} {
			prof := cachedProfiler(cache)
			got, err := OptimizeContext(context.Background(), g, prof, Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name, phase, err)
			}
			if got.Schedule.String() != want.Schedule.String() {
				t.Fatalf("%s %s: cached schedule differs:\n%s\nvs uncached\n%s",
					g.Name, phase, got.Schedule, want.Schedule)
			}
			if got.Stats.States != want.Stats.States || got.Stats.Transitions != want.Stats.Transitions {
				t.Errorf("%s %s: search statistics differ: %d states/%d transitions vs %d/%d",
					g.Name, phase, got.Stats.States, got.Stats.Transitions,
					want.Stats.States, want.Stats.Transitions)
			}
			if got.Stats.Measurements > want.Stats.Measurements {
				t.Errorf("%s %s: cached run measured MORE (%d) than uncached (%d)",
					g.Name, phase, got.Stats.Measurements, want.Stats.Measurements)
			}
			// Bit-identical cost under one shared fresh profiler.
			check := v100Profiler()
			var lat, wantLat float64
			for _, st := range got.Schedule.Stages {
				l, err := check.MeasureStage(st)
				if err != nil {
					t.Fatal(err)
				}
				lat += l
			}
			for _, st := range want.Schedule.Stages {
				l, err := check.MeasureStage(st)
				if err != nil {
					t.Fatal(err)
				}
				wantLat += l
			}
			if lat != wantLat {
				t.Errorf("%s %s: cached cost %g != uncached %g", g.Name, phase, lat, wantLat)
			}
		}
		// The warm repeat search of the same graph must be measurement-free:
		// every fingerprint is already resident.
		warm, err := OptimizeContext(context.Background(), g, cachedProfiler(cache), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats.Measurements != 0 {
			t.Errorf("%s: warm repeat search still ran %d simulator measurements", g.Name, warm.Stats.Measurements)
		}
	}
}

// TestMeasureCacheNasNetReduction is the acceptance criterion: on the
// full NasNet-A network — a stack of structurally near-identical cells —
// a cold cached Optimize must perform at least 3x fewer simulator
// measurements than the uncached search, with a bit-identical schedule.
// The win comes from cross-block structural dedup: every repeated cell's
// stages fingerprint to the same keys.
func TestMeasureCacheNasNetReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full NasNet-A search in -short mode")
	}
	if raceEnabled {
		t.Skip("full NasNet-A search under the race detector (the cache's concurrency is race-tested on the smaller zoo networks)")
	}
	g := models.NasNetA(1)
	uncached, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := measure.NewCache()
	cached, err := OptimizeContext(context.Background(), g, cachedProfiler(cache), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Schedule.String() != uncached.Schedule.String() {
		t.Fatal("cached NasNet schedule differs from the uncached oracle")
	}
	if cached.Stats.States != uncached.Stats.States || cached.Stats.Transitions != uncached.Stats.Transitions {
		t.Fatalf("cached search statistics differ: %d states/%d transitions vs %d/%d",
			cached.Stats.States, cached.Stats.Transitions,
			uncached.Stats.States, uncached.Stats.Transitions)
	}
	if cached.Stats.Measurements*3 > uncached.Stats.Measurements {
		t.Fatalf("cached NasNet Optimize: %d measurements vs %d uncached — less than the required 3x reduction",
			cached.Stats.Measurements, uncached.Stats.Measurements)
	}
	t.Logf("NasNet-A: %d uncached vs %d cached measurements (%.1fx reduction), cache: %+v",
		uncached.Stats.Measurements, cached.Stats.Measurements,
		float64(uncached.Stats.Measurements)/float64(cached.Stats.Measurements), cache.Stats())
}

// TestMeasureCacheSharedAcrossSearches: one cache amortizes across
// *different* graph values of the same architecture (the serving tier's
// repeated-model case) and across worker counts.
func TestMeasureCacheSharedAcrossSearches(t *testing.T) {
	cache := measure.NewCache()
	if _, err := OptimizeContext(context.Background(), models.InceptionE(1), cachedProfiler(cache), Options{}); err != nil {
		t.Fatal(err)
	}
	// A freshly built, structurally identical graph: node values differ,
	// fingerprints must not.
	res, err := OptimizeContext(context.Background(), models.InceptionE(1), cachedProfiler(cache), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Measurements != 0 {
		t.Errorf("re-optimizing a rebuilt identical graph ran %d measurements, want 0", res.Stats.Measurements)
	}
	// Parallel workers share the same cache through profiler forks; the
	// result stays measurement-free and bit-identical.
	par, err := OptimizeContext(context.Background(), models.InceptionE(1), cachedProfiler(cache), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Measurements != 0 {
		t.Errorf("warm parallel search ran %d measurements, want 0", par.Stats.Measurements)
	}
	if par.Schedule.String() != res.Schedule.String() {
		t.Error("warm parallel search returned a different schedule")
	}
}

// TestCachedEngineMatchesUncached holds the stage memo's class keys to the
// bit-identity bar. A block keys stages by class only with a measurement
// cache attached, and TestEngineMatchesReferenceZoo and
// TestPropertyEngineMatchesReference search without one, so here, block by
// block, a cached engine at one worker and at four must list the states an
// uncached engine lists with bit-identical costs and the same choices — so
// the same schedule, States and Transitions — and measure at most what the
// uncached engine measures, the same at both worker counts. On the zoo
// networks TestEngineMatchesReferenceZoo checks (RandWire and NasNet-A, which
// hold most of the repeated stages, under IOS_FULL_EQUIV=1) and on random
// DAGs under every strategy set and three prunings.
func TestCachedEngineMatchesUncached(t *testing.T) {
	type search struct {
		g    *graph.Graph
		opts Options
	}
	var searches []search
	builders := []models.Builder{
		models.Figure2Block, models.InceptionE, models.SqueezeNet, models.InceptionV3,
	}
	if os.Getenv("IOS_FULL_EQUIV") != "" {
		builders = append(builders, models.RandWire, models.NasNetA)
	} else if testing.Short() {
		builders = builders[:3]
	}
	for _, build := range builders {
		searches = append(searches, search{build(1), Options{}})
	}
	rng := rand.New(rand.NewSource(5))
	strategies := []StrategySet{Both, ParallelOnly, MergeOnly}
	prunings := []Pruning{DefaultPruning, {R: 2, S: 2}, {R: -1, S: -1}}
	for trial := 0; trial < 12; trial++ {
		searches = append(searches, search{randomGraph(rng), Options{Strategies: strategies[trial%3], Pruning: prunings[trial%3]}})
	}

	var keys, uncachedKeys int
	ctx := context.Background()
	for _, s := range searches {
		blocks, err := s.g.Partition(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			refProf := v100Profiler()
			ref := newEngine(b, refProf, s.opts.Canonical(), new(scratch))
			refStages, refStats, err := ref.run(ctx)
			ref.close()
			if err != nil {
				t.Fatal(err)
			}
			uncachedKeys += memoKeys(ref)
			measured := -1
			for _, workers := range []int{1, 4} {
				where := fmt.Sprintf("%s block %d, %d workers (%s)", s.g.Name, b.Index, workers, s.opts.Fingerprint())
				opts := s.opts
				opts.Workers = workers
				prof := cachedProfiler(measure.NewCache())
				e := newEngine(b, prof, opts.Canonical(), new(scratch))
				stages, stats, err := e.run(ctx)
				e.close()
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !e.classKeys {
					t.Fatalf("%s: the cached engine keys no stage by class", where)
				}
				if len(e.states) != len(ref.states) {
					t.Fatalf("%s: %d states cached, %d uncached", where, len(e.states), len(ref.states))
				}
				for id := range ref.states {
					if e.states[id] != ref.states[id] || e.cost[id] != ref.cost[id] || e.last[id] != ref.last[id] {
						t.Fatalf("%s: state %v cost %g choice %+v cached; %v %g %+v uncached", where,
							e.states[id], e.cost[id], e.last[id], ref.states[id], ref.cost[id], ref.last[id])
					}
				}
				if got, want := stagesString(s.g, stages), stagesString(s.g, refStages); got != want {
					t.Fatalf("%s: cached schedule\n%s\nuncached\n%s", where, got, want)
				}
				if stats.States != refStats.States || stats.Transitions != refStats.Transitions {
					t.Errorf("%s: stats %+v cached, %+v uncached", where, stats, refStats)
				}
				if prof.Measurements > refProf.Measurements || (measured >= 0 && prof.Measurements != measured) {
					t.Errorf("%s: %d measurements cached, %d uncached, %d at one worker", where, prof.Measurements, refProf.Measurements, measured)
				}
				measured = prof.Measurements
				if workers == 1 {
					keys += memoKeys(e)
				}
			}
		}
	}
	t.Logf("the cached engines memoized %d stages where the uncached ones memoized %d endings", keys, uncachedKeys)
	if keys >= uncachedKeys {
		t.Errorf("class keys memoized %d stages for %d endings: none shared a key", keys, uncachedKeys)
	}
}

// memoKeys counts the keys an engine's stage memo holds.
func memoKeys(e *engine) int {
	n := 0
	for i := range e.shards {
		n += e.shards[i].used
	}
	return n
}

// TestWideStageKeepsItsEndingKey: a stage of fifteen operators that each
// run their own kernel has fifteen groups of classes up to 15, five bits
// each: 75 bits, more than classBits holds. Such an ending keeps its
// ending key in the memo — packed, its fields would run into the width
// and the tag, and two stages could share a key — while the block's
// narrower stages take class keys; every state costs what the uncached
// engine computes.
func TestWideStageKeepsItsEndingKey(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("the search takes 14 M transitions")
	}
	const width = 15
	g := graph.New("wide")
	in := g.Input("in", graph.Shape{N: 1, C: 8, H: 16, W: 16})
	branches := make([]*graph.Node, width)
	for i := range branches {
		branches[i] = g.Conv(fmt.Sprintf("c%d", i), in, graph.ConvOpts{Out: 8 + 8*i, Kernel: 1})
	}
	g.Concat("out", branches...)
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	var b *graph.Block
	for _, bl := range blocks {
		if len(bl.Nodes) > width {
			b = bl
		}
	}
	if b == nil {
		t.Fatalf("no block holds the %d branches", width)
	}
	var wide bitset.Set
	for i, n := range b.Nodes {
		if n.Op.Kind == graph.OpConv {
			wide = wide.Add(i)
		}
	}
	if wide.Len() != width {
		t.Fatalf("the block holds %d convolutions, want %d", wide.Len(), width)
	}

	ctx := context.Background()
	opts := Options{Strategies: ParallelOnly, Pruning: Pruning{R: 1, S: -1}}.Canonical()
	ref := newEngine(b, v100Profiler(), opts, new(scratch))
	if _, _, err := ref.run(ctx); err != nil {
		t.Fatal(err)
	}
	ref.close()
	e := newEngine(b, cachedProfiler(measure.NewCache()), opts, new(scratch))
	if _, _, err := e.run(ctx); err != nil {
		t.Fatal(err)
	}
	e.close()
	if !e.classKeys {
		t.Fatal("the cached engine keys no stage by class")
	}
	if len(e.states) != len(ref.states) {
		t.Fatalf("%d states cached, %d uncached", len(e.states), len(ref.states))
	}
	for id := range ref.states {
		if e.states[id] != ref.states[id] || e.cost[id] != ref.cost[id] || e.last[id] != ref.last[id] {
			t.Fatalf("state %v cost %g choice %+v cached; %v %g %+v uncached",
				e.states[id], e.cost[id], e.last[id], ref.states[id], ref.cost[id], ref.last[id])
		}
	}
	inMemo := func(k uint64) bool {
		h := hashKey(k)
		return e.shards[h&uint64(len(e.shards)-1)].tab.Load().find(k, h) != nil
	}
	if !inMemo(uint64(wide)) {
		t.Error("the fifteen-group stage is not in the memo under its ending key")
	}
	classKeyed := 0
	for i := range e.shards {
		v := e.shards[i].tab.Load()
		for j := range v.index {
			if w := v.index[j].Load(); w != 0 {
				r := w&(1<<stageRefBits-1) - 1
				if v.chunks[r>>stageChunkBits][r&(1<<stageChunkBits-1)].key&classTag != 0 {
					classKeyed++
				}
			}
		}
	}
	if classKeyed == 0 || classKeyed == memoKeys(e) {
		t.Errorf("%d of the memo's %d keys are class keys, want the narrow stages' alone", classKeyed, memoKeys(e))
	}
}
