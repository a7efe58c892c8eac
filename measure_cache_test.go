package ios_test

import (
	"context"
	"testing"

	"ios"
)

// TestEngineWithMeasureCache: an engine's private measurement memo and
// block cache persist across Optimize calls — a repeated search of the
// same architecture is measurement-free — and never change what the
// search returns.
func TestEngineWithMeasureCache(t *testing.T) {
	ctx := context.Background()
	g := ios.SqueezeNet(1)
	plain := bareSearch(t, ios.V100, g)

	eng := ios.NewEngine(ios.V100)
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

	// A fresh engine owns its memo: whatever this one measured, its first
	// search of the same graph measures every stage again.
	fresh, err := ios.NewEngine(ios.V100).Optimize(ctx, ios.SqueezeNet(1), ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.Measurements != first.Stats.Measurements {
		t.Fatalf("a fresh engine's first search measured %d stages, the first engine's %d",
			fresh.Stats.Measurements, first.Stats.Measurements)
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
	if got.Stats.Measurements >= want.Stats.Measurements {
		t.Fatalf("a bare engine's NasNet-A search measured %d stages, the bare core search %d: its memo saved nothing",
			got.Stats.Measurements, want.Stats.Measurements)
	}
}
