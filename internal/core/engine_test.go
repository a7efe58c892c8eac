package core

import (
	"context"
	"os"
	"runtime"
	"testing"

	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// TestEngineMatchesReferenceZoo proves the acceptance property on real
// networks: the parallel engine returns bit-identical schedules, costs,
// states and transitions to the original recursion, block by block, across
// the model zoo, at one worker and at four. Measurements are at most the
// reference's — the engine skips endings whose bound already loses, the
// recursion measures every ending it meets — and the same at both worker
// counts. The two search-heavy paper benchmarks (RandWire, NasNet) take
// tens of seconds under the reference recursion, so they run only with
// IOS_FULL_EQUIV=1 (the recorded full-zoo run is in PERF.md).
func TestEngineMatchesReferenceZoo(t *testing.T) {
	builders := []models.Builder{
		models.Figure2Block, models.InceptionE, models.SqueezeNet, models.InceptionV3,
	}
	if os.Getenv("IOS_FULL_EQUIV") != "" {
		builders = append(builders, models.RandWire, models.NasNetA)
	} else if testing.Short() {
		builders = builders[:3]
	}
	for _, build := range builders {
		g := build(1)
		blocks, err := g.Partition(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			refProf := v100Profiler()
			refStages, refStats, err := optimizeBlockReference(b, refProf, Options{})
			if err != nil {
				t.Fatalf("%s block %d: reference: %v", g.Name, b.Index, err)
			}
			var stages []schedule.Stage
			measured := -1
			for _, workers := range []int{1, 4} {
				ws, stats, err := OptimizeBlockContext(context.Background(), b, v100Profiler(), Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s block %d workers %d: engine: %v", g.Name, b.Index, workers, err)
				}
				got := (&schedule.Schedule{Graph: g, Stages: ws}).String()
				want := (&schedule.Schedule{Graph: g, Stages: refStages}).String()
				if got != want {
					t.Fatalf("%s block %d workers %d: schedule mismatch:\n%s\nvs reference\n%s", g.Name, b.Index, workers, got, want)
				}
				if stats.States != refStats.States || stats.Transitions != refStats.Transitions ||
					stats.Measurements > refProf.Measurements || (measured >= 0 && stats.Measurements != measured) {
					t.Errorf("%s block %d workers %d: %d states, %d transitions, %d measurements; want the reference's %d and %d, at most its %d measurements, and one worker's %d",
						g.Name, b.Index, workers, stats.States, stats.Transitions, stats.Measurements,
						refStats.States, refStats.Transitions, refProf.Measurements, measured)
				}
				stages, measured = ws, stats.Measurements
			}
			// Bit-identical cost under one shared fresh profiler.
			check := v100Profiler()
			var lat, refLat float64
			for _, st := range stages {
				l, err := check.MeasureStage(st)
				if err != nil {
					t.Fatal(err)
				}
				lat += l
			}
			for _, st := range refStages {
				l, err := check.MeasureStage(st)
				if err != nil {
					t.Fatal(err)
				}
				refLat += l
			}
			if lat != refLat {
				t.Errorf("%s block %d: cost %g != reference %g", g.Name, b.Index, lat, refLat)
			}
		}
	}
}

// TestForkSharesLoweringTables: a fork of a prelowered profiler performs
// no additional solo simulations for the shared nodes (the satellite fix:
// Fork used to discard the parent's lowered/solo caches).
func TestForkSharesLoweringTables(t *testing.T) {
	g := models.InceptionE(1)
	prof := v100Profiler()
	prof.Prelower(g.SchedulableNodes())
	before := prof.Measurements
	f := prof.Fork()
	f.Prelower(g.SchedulableNodes()) // all cached: must be free
	if f.Measurements != 0 {
		t.Errorf("fork re-measured %d solo durations despite shared tables", f.Measurements)
	}
	if prof.Measurements != before {
		t.Errorf("forking changed the parent's measurement count")
	}
}

// TestSearchBytesPerTransition keeps the engine's memory in the number of
// states and distinct endings, as Algorithm 1's is: nothing may be
// allocated per (S, S') pair. The RandWire hardest block (1,720 states,
// 100,968 transitions) at one worker with no cache attached allocated
// 52.0 bytes per transition while the engine stored transition records,
// 18.5 with 24-byte memo slots and 13.2 with 16-byte ones; it is a single
// block, so what it reads is the 16-byte slot alone — now only for the
// endings a state probes, not those its bound skips — and the budget is
// pinned a fifth above that. TotalAlloc counts bytes, so the figure is exact
// and host-independent.
func TestSearchBytesPerTransition(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector's instrumentation")
	}
	const budget = 10.0 // bytes per transition; the engine measures 8.0
	b, err := HardestBlock(models.RandWire(1))
	if err != nil {
		t.Fatal(err)
	}
	prof := v100Profiler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, stats, err := OptimizeBlockContext(context.Background(), b, prof, Options{Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.States != 1720 || stats.Transitions != 100968 {
		t.Fatalf("RandWire hardest block searched %d states, %d transitions; the budget below is sized for 1720 and 100968",
			stats.States, stats.Transitions)
	}
	perTransition := float64(after.TotalAlloc-before.TotalAlloc) / float64(stats.Transitions)
	t.Logf("%.1f bytes allocated per transition", perTransition)
	if perTransition > budget {
		t.Errorf("search allocated %.1f bytes per transition, budget %.1f: is something stored per (S, S') again, or has the memo slot grown?",
			perTransition, budget)
	}
}

// TestStageKeyBudget pins the two facts the measurement cache's share of a
// cold search rests on, where a search's keys are what it leaves resident
// (search_deep's heap_retained_mb) and its hits are millions to the
// hundred thousand runs they save: the keys RandWire's hardest block leaves
// in a fresh cache — at batches 1, 2 and 4, since a search that skips the
// endings that cannot win leaves 3,114 at batch 1, not 7,596 — average at most
// 32 bytes — they are ids into the cache's dictionary, where the long form
// they stand for runs to 300 — and a hit through Profiler.MeasureStage
// allocates nothing. The keys themselves are read, not the heap.
func TestStageKeyBudget(t *testing.T) {
	const budget = 32.0 // key bytes per entry; the blocks measure 17.5
	cache := measure.NewCache()
	var prof *profile.Profiler
	var stages []schedule.Stage
	measurements := 0
	for _, batch := range []int{1, 2, 4} {
		b, err := HardestBlock(models.RandWire(batch))
		if err != nil {
			t.Fatal(err)
		}
		prof = v100Profiler()
		prof.SetMeasureCache(cache)
		var stats Stats
		stages, stats, err = OptimizeBlockContext(context.Background(), b, prof, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		measurements += stats.Measurements
	}
	entries, _ := cache.Snapshot(0)
	if len(entries) != measurements || len(entries) < 5_000 {
		t.Fatalf("the searches ran %d measurements and left %d entries; want one entry each, and blocks worth budgeting", measurements, len(entries))
	}
	var resident, long int
	for _, e := range entries {
		fp, _, err := e.Decode()
		if err != nil {
			t.Fatal(err)
		}
		key, ok := cache.Intern(nil, fp) // resident already: this only translates
		if !ok {
			t.Fatalf("a resident key does not translate back: %x", fp)
		}
		resident, long = resident+len(key), long+len(fp)
	}
	perEntry := float64(resident) / float64(len(entries))
	t.Logf("%d entries: %.1f key bytes each resident, %.1f in the long form", len(entries), perEntry, float64(long)/float64(len(entries)))
	if perEntry > budget {
		t.Errorf("the cache holds %.1f key bytes per entry, budget %.1f: are stages keyed by their long form again?", perEntry, budget)
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	for i, st := range stages {
		if st.Strategy != schedule.Concurrent {
			continue // a merge stage builds its fused kernels to be keyed at all
		}
		before := prof.Measurements
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := prof.MeasureStage(st); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 || prof.Measurements != before {
			t.Errorf("stage %d: a cache hit allocates %.0f times and ran the backend %d times, want 0 and 0", i, allocs, prof.Measurements-before)
		}
	}
}

// TestGraphSearchBytesPerEnding pins what a whole-graph search allocates
// per distinct ending it memoizes: NasNet-A's nine 21-operator cells hold
// the same number of endings each, so a searcher that keeps its tables from
// one block to the next grows them once, where a memo built per block
// allocated 117.8 bytes for each of the 1,318,992 endings enumerated below,
// about 160 per ending memoized today. Two searchers of two workers each,
// whatever the host, so the figure is the same everywhere.
func TestGraphSearchBytesPerEnding(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a whole NasNet-A search; the allocation budget is measured without the race detector's instrumentation")
	}
	const budget = 24.0 // bytes per distinct ending; the engine measures 19.8
	// Filled memo slots summed over NasNet-A's 15 blocks, each searched on
	// its own: the endings some state probes rather than skips on its bound,
	// a property of the graph, the pruning and the device model, like the
	// two statistics that guard it. (The blocks' states enumerate 1,318,992
	// distinct endings, and the memo held them all while every ending was
	// probed: 14.9 bytes each against a budget of 18, or 23.7 MB, where
	// this one allows 23.4.)
	const endings = 972960
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := models.NasNetA(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{Workers: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.States != 71267 || res.Stats.Transitions != 17842094 {
		t.Fatalf("NasNet-A searched %d states, %d transitions; the ending count above goes with 71267 and 17842094",
			res.Stats.States, res.Stats.Transitions)
	}
	perEnding := float64(after.TotalAlloc-before.TotalAlloc) / endings
	t.Logf("%.1f bytes allocated per distinct ending", perEnding)
	if perEnding > budget {
		t.Errorf("graph search allocated %.1f bytes per distinct ending, budget %.1f: are the memo tables built per block again?",
			perEnding, budget)
	}
}
