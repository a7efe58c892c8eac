package ios_test

import (
	"context"
	"testing"

	"ios"
	"ios/internal/core"
	"ios/internal/profile"
)

// bareSearch is the search with no cache of any kind: the core DP on a
// fresh profiler, the oracle an engine's cached searches must equal.
func bareSearch(t *testing.T, dev ios.Device, g *ios.Graph) *ios.Result {
	t.Helper()
	res, err := core.OptimizeContext(context.Background(), g, profile.New(dev), ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineWithBlockCache: the whole-block schedule cache persists across
// Optimize calls on one engine — a repeated search of the same architecture
// runs zero block DP searches — and never changes what the search returns.
func TestEngineWithBlockCache(t *testing.T) {
	ctx := context.Background()
	g := ios.SqueezeNet(1)
	plain := bareSearch(t, ios.V100, g)

	eng := ios.NewEngine(ios.V100, ios.WithBlockCache(nil)) // nil = the engine's own private cache
	first, err := eng.Optimize(ctx, g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Schedule.String() != plain.Schedule.String() {
		t.Fatal("block cache changed the schedule")
	}
	if first.Stats.States != plain.Stats.States || first.Stats.Transitions != plain.Stats.Transitions {
		t.Fatalf("block cache changed search statistics: %+v vs %+v", first.Stats, plain.Stats)
	}
	coldMisses := eng.BlockCacheStats().Misses

	// Same architecture, freshly built graph: the cache persists across
	// calls, so the repeat search claims nothing.
	second, err := eng.Optimize(ctx, ios.SqueezeNet(1), ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Schedule.String() != plain.Schedule.String() {
		t.Fatal("warm search returned a different schedule")
	}
	st := eng.BlockCacheStats()
	if st.Misses != coldMisses {
		t.Fatalf("second Optimize on a warm block cache ran %d block searches", st.Misses-coldMisses)
	}
	if st.Hits < int64(second.Stats.Blocks) {
		t.Fatalf("warm repeat hit only %d of %d blocks", st.Hits, second.Stats.Blocks)
	}
	if st.Saved() == 0 {
		t.Fatal("no block searches saved despite a warm repeat search")
	}

	// An engine without the option owns a private cache: a fresh engine
	// has seen no traffic, whatever this one did.
	if st := ios.NewEngine(ios.V100).BlockCacheStats(); st != (ios.BlockCacheStats{}) {
		t.Fatalf("a fresh engine reports stats %+v", st)
	}
}

// TestEnginesShareOneBlockCache: engines can share one block cache;
// fingerprints embed the device model, so entries never cross devices.
func TestEnginesShareOneBlockCache(t *testing.T) {
	ctx := context.Background()
	cache := ios.NewBlockCache()
	a := ios.NewEngine(ios.V100, ios.WithBlockCache(cache))
	b := ios.NewEngine(ios.V100, ios.WithBlockCache(cache))
	if _, err := a.Optimize(ctx, ios.Figure2Block(1), ios.Options{}); err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses
	if _, err := b.Optimize(ctx, ios.Figure2Block(1), ios.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := cache.Stats().Misses - misses; n != 0 {
		t.Fatalf("second engine re-searched %d blocks the first already solved", n)
	}

	// A different device on the same shared cache must not hit the V100's
	// entries: its search runs from scratch and stays correct.
	k := ios.NewEngine(ios.K80, ios.WithBlockCache(cache))
	kres, err := k.Optimize(ctx, ios.Figure2Block(1), ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Misses == misses {
		t.Fatal("K80 search served schedules from V100 cache entries")
	}
	if kplain := bareSearch(t, ios.K80, ios.Figure2Block(1)); kres.Schedule.String() != kplain.Schedule.String() {
		t.Fatal("shared cache corrupted the K80 search")
	}
}
