package core

import (
	"context"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"ios/internal/blockcache"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/schedule"
)

// TestBlockCacheEquivalenceZoo is the block cache's correctness bar: with
// a whole-block schedule cache attached, Optimize must return bit-identical
// schedules, costs, and state/transition statistics to the uncached oracle
// on every zoo network — cold (the first search fills the cache) and warm
// (every block is served without searching). Only actual search work may
// drop.
func TestBlockCacheEquivalenceZoo(t *testing.T) {
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
		cache := blockcache.NewCache()
		opts := Options{}.WithBlockCache(cache)
		var coldMisses int64
		for _, phase := range []string{"cold", "warm"} {
			got, err := OptimizeContext(context.Background(), g, v100Profiler(), opts)
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
			st := cache.Stats()
			switch phase {
			case "cold":
				coldMisses = st.Misses
				if blocks := int64(got.Stats.Blocks); coldMisses > blocks {
					t.Errorf("%s: cold run searched %d blocks but the graph has %d", g.Name, coldMisses, blocks)
				}
			case "warm":
				if st.Misses != coldMisses {
					t.Errorf("%s: warm repeat ran %d block searches, want 0", g.Name, st.Misses-coldMisses)
				}
				if st.Hits < int64(got.Stats.Blocks) {
					t.Errorf("%s: warm repeat hit only %d of %d blocks", g.Name, st.Hits, got.Stats.Blocks)
				}
			}
		}
	}
}

// TestBlockCacheNasNetDedup is the acceptance criterion: on full NasNet-A —
// a stack of repeated cells — a cold cached Optimize must run exactly one
// block search per structurally distinct block (strictly fewer than the
// block count), a warm repeat must run zero, and both must return schedules
// bit-identical to the uncached oracle.
func TestBlockCacheNasNetDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full NasNet-A search in -short mode")
	}
	if raceEnabled {
		t.Skip("full NasNet-A search under the race detector (the cache's concurrency is race-tested on the smaller zoo networks)")
	}
	g := models.NasNetA(1)
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	prof := v100Profiler()
	distinct := map[string]bool{}
	for _, b := range blocks {
		distinct[string(blockcache.Fingerprint(b, prof, Options{}.Canonical().Fingerprint()))] = true
	}
	if len(distinct) >= len(blocks) {
		t.Fatalf("NasNet-A has no repeated block structures (%d blocks, %d fingerprints) — dedup impossible", len(blocks), len(distinct))
	}

	uncached, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := blockcache.NewCache()
	opts := Options{}.WithBlockCache(cache)
	cold, err := OptimizeContext(context.Background(), g, v100Profiler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Schedule.String() != uncached.Schedule.String() {
		t.Fatal("cold cached NasNet schedule differs from the uncached oracle")
	}
	if cold.Stats.States != uncached.Stats.States || cold.Stats.Transitions != uncached.Stats.Transitions {
		t.Fatalf("cold cached search statistics differ: %d states/%d transitions vs %d/%d",
			cold.Stats.States, cold.Stats.Transitions, uncached.Stats.States, uncached.Stats.Transitions)
	}
	coldMisses := cache.Stats().Misses
	if coldMisses != int64(len(distinct)) {
		t.Errorf("cold NasNet Optimize ran %d block searches, want exactly the %d distinct structures",
			coldMisses, len(distinct))
	}
	warm, err := OptimizeContext(context.Background(), g, v100Profiler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Schedule.String() != uncached.Schedule.String() {
		t.Fatal("warm cached NasNet schedule differs from the uncached oracle")
	}
	if n := cache.Stats().Misses - coldMisses; n != 0 {
		t.Errorf("warm NasNet repeat still ran %d block searches", n)
	}
	t.Logf("NasNet-A: %d blocks, %d distinct structures, cold searched %d, cache: %+v",
		len(blocks), len(distinct), coldMisses, cache.Stats())
}

// TestBlockCacheWorkerSweepEquivalence: Options.Workers is a pure execution
// knob and is excluded from the fingerprint, so a worker-count sweep against
// ONE shared cache must reuse the same entries — no new searches after the
// first run — and return bit-identical schedules. (A worker-dependent search
// result would make this reuse unsound; this test would catch it.)
func TestBlockCacheWorkerSweepEquivalence(t *testing.T) {
	g := models.InceptionE(1)
	cache := blockcache.NewCache()
	var first *Result
	var firstMisses int64
	for _, workers := range []int{1, 2, 4} {
		res, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{Workers: workers}.WithBlockCache(cache))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = res
			firstMisses = cache.Stats().Misses
			continue
		}
		if res.Schedule.String() != first.Schedule.String() {
			t.Errorf("workers=%d: schedule differs from workers=1", workers)
		}
		if res.Stats.States != first.Stats.States || res.Stats.Transitions != first.Stats.Transitions {
			t.Errorf("workers=%d: search statistics differ: %d/%d vs %d/%d", workers,
				res.Stats.States, res.Stats.Transitions, first.Stats.States, first.Stats.Transitions)
		}
		if n := cache.Stats().Misses; n != firstMisses {
			t.Errorf("workers=%d: ran %d extra block searches (Workers leaked into the fingerprint?)", workers, n-firstMisses)
		}
	}
}

// TestBlockCacheSharedAcrossGraphValues: one cache amortizes across
// *different* graph values of the same architecture — the serving tier's
// repeated-model case. Node identities differ; fingerprints must not.
func TestBlockCacheSharedAcrossGraphValues(t *testing.T) {
	cache := blockcache.NewCache()
	opts := Options{}.WithBlockCache(cache)
	first, err := OptimizeContext(context.Background(), models.InceptionE(1), v100Profiler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses
	res, err := OptimizeContext(context.Background(), models.InceptionE(1), v100Profiler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := cache.Stats().Misses - misses; n != 0 {
		t.Errorf("re-optimizing a rebuilt identical graph ran %d block searches, want 0", n)
	}
	if res.Schedule.String() != first.Schedule.String() {
		t.Error("rebuilt identical graph got a different schedule from the cache")
	}
}

// TestBlockCacheConcurrentOptimize exercises the singleflight path the way
// the serving tier does: many goroutines optimizing the same architecture
// against one shared cache. Exactly one search per distinct structure may
// run (concurrent requesters coalesce onto the in-flight one), every result
// must be bit-identical, and the whole thing must be race-clean (this test
// is part of the -race CI step).
func TestBlockCacheConcurrentOptimize(t *testing.T) {
	g := models.InceptionE(1)
	want, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	prof := v100Profiler()
	distinct := map[string]bool{}
	for _, b := range blocks {
		distinct[string(blockcache.Fingerprint(b, prof, Options{}.Canonical().Fingerprint()))] = true
	}

	cache := blockcache.NewCache()
	const runs = 8
	scheds := make([]*schedule.Schedule, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := OptimizeContext(context.Background(), models.InceptionE(1), v100Profiler(), Options{}.WithBlockCache(cache))
			if err != nil {
				errs[i] = err
				return
			}
			scheds[i] = res.Schedule
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if scheds[i].String() != want.Schedule.String() {
			t.Errorf("run %d: schedule differs from the uncached oracle", i)
		}
	}
	st := cache.Stats()
	if st.Misses != int64(len(distinct)) {
		t.Errorf("%d concurrent runs performed %d block searches, want exactly the %d distinct structures (singleflight broken?)",
			runs, st.Misses, len(distinct))
	}
	if st.Saved() == 0 {
		t.Error("no block searches were saved across concurrent runs")
	}
	t.Logf("concurrent runs: %d searches for %d distinct structures, %d saved (%d hits + %d coalesced)",
		st.Misses, len(distinct), st.Saved(), st.Hits, st.Coalesced)
}

// TestBlockCacheCancelledOptimizeDoesNotPoison: cancelling an Optimize
// mid-search must abandon its in-flight claims so the shared cache stays
// fully usable — a fresh Optimize afterwards succeeds, matches the oracle,
// and fills the cache normally. A wedged or poisoned fingerprint would hang
// or corrupt this second run.
func TestBlockCacheCancelledOptimizeDoesNotPoison(t *testing.T) {
	g := models.InceptionE(1)
	cache := blockcache.NewCache()
	opts := Options{}.WithBlockCache(cache)

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	// Cancel at the first DP level barrier: claims exist, searches are in
	// flight, nothing has committed yet.
	_, err := OptimizeWithProgress(ctx, g, v100Profiler(), opts, func(Progress) {
		once.Do(cancel)
	})
	cancel()
	if err == nil {
		// The cancellation raced the (fast) search to completion; the cache
		// is warm instead — still a valid state for the assertions below.
		t.Log("search completed before the cancellation landed")
	}

	res, err := OptimizeContext(context.Background(), g, v100Profiler(), opts)
	if err != nil {
		t.Fatalf("Optimize after a cancelled run failed: %v", err)
	}
	want, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.String() != want.Schedule.String() {
		t.Error("schedule after a cancelled run differs from the uncached oracle")
	}
	if cache.Len() == 0 {
		t.Error("cache still empty after a successful run (claims left wedged?)")
	}
}

// TestBlockCachePersistCrossRestart is the warm-start story end to end:
// optimize, save the cache to disk, load it into a brand-new cache (a new
// process), and re-optimize — zero block searches, every block a hit, and a
// bit-identical schedule.
func TestBlockCachePersistCrossRestart(t *testing.T) {
	g := models.InceptionV3(1)
	if testing.Short() {
		g = models.InceptionE(1)
	}
	cache := blockcache.NewCache()
	first, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{}.WithBlockCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "blocks.json")
	if err := cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	restarted := blockcache.NewCache()
	if _, err := restarted.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if restarted.Len() != cache.Len() {
		t.Fatalf("restart loaded %d entries, saved %d", restarted.Len(), cache.Len())
	}
	res, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{}.WithBlockCache(restarted))
	if err != nil {
		t.Fatal(err)
	}
	st := restarted.Stats()
	if st.Misses != 0 {
		t.Errorf("restarted warm run still ran %d block searches", st.Misses)
	}
	if st.Hits < int64(res.Stats.Blocks) {
		t.Errorf("restarted warm run hit only %d of %d blocks", st.Hits, res.Stats.Blocks)
	}
	if res.Schedule.String() != first.Schedule.String() {
		t.Error("restarted warm schedule differs from the original")
	}
	if res.Stats.States != first.Stats.States || res.Stats.Transitions != first.Stats.Transitions {
		t.Errorf("restarted warm statistics differ: %d/%d vs %d/%d",
			res.Stats.States, res.Stats.Transitions, first.Stats.States, first.Stats.Transitions)
	}
}

// TestBlockHitBytesPerBlock pins what a block costs when there is nothing to
// search: ResNet-50 re-searched against a warm block cache, a warm
// measurement cache and a prelowered profiler — every block a hit — pays per
// block its rebound stages and its slot in the result, and nothing else: the
// profiler fork belongs to the searcher, and the scratch, whose buffer the
// fingerprint is encoded into, to the pool. What the search allocates for the
// graph as a whole, its partition and its schedule's validation, is measured
// the same way and taken off, so the figure is the block loop's alone, and
// has a budget of its own. The block loop reads 447 to 492 bytes a block,
// where a fingerprint of its own key buffer and node maps read 1,356 and a
// profiler forked per block (a simulator each) 1,960; the partition and the
// validation read 6,856 bytes, where node-keyed maps read 25,424. Two
// searchers, whatever the host; TotalAlloc counts bytes, so the figures are
// the same everywhere.
func TestBlockHitBytesPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector's instrumentation")
	}
	const (
		budget      = 590.0  // bytes per block; the search measures 447 to 492
		graphBudget = 8200.0 // bytes for the partition and the validation; they measure 6,856
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	allocated := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	ctx := context.Background()
	g := models.ResNet50(1)
	root := v100Profiler()
	root.SetMeasureCache(measure.NewCache())
	cache := blockcache.NewCache()
	opts := Options{}.WithBlockCache(cache)
	cold, err := OptimizeContext(ctx, g, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	searched := cache.Stats().Misses
	prof := root.Fork() // as a serving engine hands one to every call
	var warm *Result
	search := allocated(func() { warm, err = OptimizeContext(ctx, g, prof, opts) })
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != searched || warm.Stats.Measurements != 0 || warm.Stats.Blocks < 16 {
		t.Fatalf("warm repeat of %d blocks searched %d of them and ran %d measurements; want a many-block graph, all hits",
			warm.Stats.Blocks, st.Misses-searched, warm.Stats.Measurements)
	}
	if warm.Schedule.String() != cold.Schedule.String() {
		t.Fatal("warm schedule differs from the cold one")
	}
	graphLevel := allocated(func() {
		if _, err = g.Partition(opts.Canonical().MaxBlockOps); err == nil {
			err = warm.Schedule.Validate()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	perBlock := (search - graphLevel) / float64(warm.Stats.Blocks)
	t.Logf("%.0f bytes allocated per block hit (%d blocks; %.0f bytes for the search, %.0f of them the partition and the validation)",
		perBlock, warm.Stats.Blocks, search, graphLevel)
	if perBlock > budget {
		t.Errorf("a block hit allocates %.0f bytes, budget %.0f: is a profiler forked, an engine worker built or a fingerprint buffer made per block again?",
			perBlock, budget)
	}
	if graphLevel > graphBudget {
		t.Errorf("the partition and the validation allocate %.0f bytes, budget %.0f: do they build node-keyed maps again?", graphLevel, graphBudget)
	}
}
