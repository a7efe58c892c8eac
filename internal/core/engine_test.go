package core

import (
	"context"
	"os"
	"runtime"
	"testing"

	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/schedule"
)

// TestEngineMatchesReferenceZoo proves the acceptance property on real
// networks: the parallel engine returns bit-identical schedules, costs,
// and search statistics to the original recursion, block by block, across
// the model zoo. The two search-heavy paper benchmarks (RandWire, NasNet)
// take tens of seconds under the reference recursion, so they run only
// with IOS_FULL_EQUIV=1 (the recorded full-zoo run is in PERF.md).
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
			prof := v100Profiler()
			stages, stats, err := OptimizeBlockContext(context.Background(), b, prof, Options{})
			if err != nil {
				t.Fatalf("%s block %d: engine: %v", g.Name, b.Index, err)
			}
			got := (&schedule.Schedule{Graph: g, Stages: stages}).String()
			want := (&schedule.Schedule{Graph: g, Stages: refStages}).String()
			if got != want {
				t.Fatalf("%s block %d: schedule mismatch:\n%s\nvs reference\n%s", g.Name, b.Index, got, want)
			}
			if stats.States != refStats.States || stats.Transitions != refStats.Transitions ||
				stats.Measurements != refProf.Measurements {
				t.Errorf("%s block %d: stats (%d states, %d transitions, %d measurements) != reference (%d, %d, %d)",
					g.Name, b.Index, stats.States, stats.Transitions, stats.Measurements,
					refStats.States, refStats.Transitions, refProf.Measurements)
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
// 52.0 bytes per transition while the engine stored transition records and
// 18.5 with 24-byte memo slots; it is a single block, so what it reads now
// is the 16-byte slot alone, and the budget is pinned a fifth above that.
// TotalAlloc counts bytes, so the figure is exact and host-independent.
func TestSearchBytesPerTransition(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector's instrumentation")
	}
	const budget = 16.0 // bytes per transition; the engine measures 13.2
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
// (search_deep's heap_retained_mb) and its hits are a million to the
// hundred and fifty thousand runs they save: the keys RandWire's hardest
// block leaves in a fresh cache average at most 32 bytes — they are ids
// into the cache's dictionary, where the long form they stand for runs to
// 300 — and a hit through Profiler.MeasureStage allocates nothing. The
// keys themselves are read, not the heap.
func TestStageKeyBudget(t *testing.T) {
	const budget = 32.0 // key bytes per entry; the block measures 17.4
	b, err := HardestBlock(models.RandWire(1))
	if err != nil {
		t.Fatal(err)
	}
	cache := measure.NewCache()
	prof := v100Profiler()
	prof.SetMeasureCache(cache)
	stages, stats, err := OptimizeBlockContext(context.Background(), b, prof, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := cache.Snapshot(0)
	if len(entries) != stats.Measurements || len(entries) < 5_000 {
		t.Fatalf("the search ran %d measurements and left %d entries; want one entry each, and a block worth budgeting", stats.Measurements, len(entries))
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
// allocated 117.8 bytes per ending. Two searchers of two workers each,
// whatever the host, so the figure is the same everywhere.
func TestGraphSearchBytesPerEnding(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a whole NasNet-A search; the allocation budget is measured without the race detector's instrumentation")
	}
	const budget = 18.0 // bytes per distinct ending; the engine measures 14.9
	// Filled memo slots summed over NasNet-A's 15 blocks, each searched on
	// its own; a property of the graph and the pruning, like the two
	// statistics that guard it.
	const endings = 1318992
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
