package core

import (
	"context"
	"testing"

	"ios/internal/gpusim"
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
