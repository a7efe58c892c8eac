package ios_test

import (
	"context"
	"testing"

	"ios"
)

// TestEngineWithMeasureCache: the structural measurement cache persists
// across Optimize calls on one engine — a repeated search of the same
// architecture is measurement-free — and never changes what the search
// returns.
func TestEngineWithMeasureCache(t *testing.T) {
	ctx := context.Background()
	g := ios.SqueezeNet(1)
	plain := bareSearch(t, ios.V100, g)

	eng := ios.NewEngine(ios.V100, ios.WithMeasureCache(nil)) // nil = the engine's own private cache
	first, err := eng.Optimize(ctx, g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Schedule.String() != plain.Schedule.String() {
		t.Fatal("measure cache changed the schedule")
	}
	if first.Stats.States != plain.Stats.States || first.Stats.Transitions != plain.Stats.Transitions {
		t.Fatalf("measure cache changed search statistics: %+v vs %+v", first.Stats, plain.Stats)
	}
	if first.Stats.Measurements > plain.Stats.Measurements {
		t.Fatalf("cached run measured more (%d) than uncached (%d)",
			first.Stats.Measurements, plain.Stats.Measurements)
	}

	// Same architecture, freshly built graph: the cache persists across
	// calls, so the repeat search simulates nothing.
	second, err := eng.Optimize(ctx, ios.SqueezeNet(1), ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Measurements != 0 {
		t.Fatalf("second Optimize on a warm measure cache ran %d measurements", second.Stats.Measurements)
	}
	if second.Schedule.String() != plain.Schedule.String() {
		t.Fatal("warm search returned a different schedule")
	}

	st := eng.MeasureCacheStats()
	if st.Misses == 0 || st.Hits == 0 || st.Size == 0 {
		t.Fatalf("measure cache stats = %+v, want traffic recorded", st)
	}
	if st.Saved() == 0 {
		t.Fatal("no simulator runs saved despite a warm repeat search")
	}

	// An engine without the option owns a private cache: a fresh engine
	// has seen no traffic, whatever this one did.
	if st := ios.NewEngine(ios.V100).MeasureCacheStats(); st != (ios.MeasureCacheStats{}) {
		t.Fatalf("a fresh engine reports stats %+v", st)
	}
}

// TestEnginesShareOneMeasureCache: two engines (e.g. two devices' worth
// of serving paths) can share a single cache; fingerprints
// embed the device model, so entries never cross devices.
func TestEnginesShareOneMeasureCache(t *testing.T) {
	ctx := context.Background()
	cache := ios.NewMeasureCache()
	a := ios.NewEngine(ios.V100, ios.WithMeasureCache(cache))
	b := ios.NewEngine(ios.V100, ios.WithMeasureCache(cache))
	if _, err := a.Optimize(ctx, ios.Figure2Block(1), ios.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := b.Optimize(ctx, ios.Figure2Block(1), ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Measurements != 0 {
		t.Fatalf("second engine re-simulated %d fingerprints the first already measured", res.Stats.Measurements)
	}

	// A different device on the same shared cache must not hit the
	// V100's entries: its search measures from scratch and stays correct.
	k := ios.NewEngine(ios.K80, ios.WithMeasureCache(cache))
	kres, err := k.Optimize(ctx, ios.Figure2Block(1), ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if kres.Stats.Measurements == 0 {
		t.Fatal("K80 search served latencies from V100 cache entries")
	}
	if kplain := bareSearch(t, ios.K80, ios.Figure2Block(1)); kres.Schedule.String() != kplain.Schedule.String() {
		t.Fatal("shared cache corrupted the K80 search")
	}
}

// TestBareEngineSearchesCached: a bare NewEngine measures through its own
// cache, and the search it returns for NasNet-A — schedule, states and
// transitions — is the one the core DP finds with no cache at all.
func TestBareEngineSearchesCached(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two full NasNet-A searches")
	}
	g := ios.NasNetA(1)
	eng := ios.NewEngine(ios.V100)
	got, err := eng.Optimize(context.Background(), g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := bareSearch(t, ios.V100, g)
	if got.Schedule.String() != want.Schedule.String() ||
		got.Stats.States != want.Stats.States || got.Stats.Transitions != want.Stats.Transitions {
		t.Fatalf("bare engine: %d states, %d transitions; bare core search: %d and %d (schedules equal: %v)",
			got.Stats.States, got.Stats.Transitions, want.Stats.States, want.Stats.Transitions,
			got.Schedule.String() == want.Schedule.String())
	}
	if eng.MeasureCacheStats().Saved() == 0 {
		t.Fatal("a bare engine's NasNet-A search saved no simulator run")
	}
}
