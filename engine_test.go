package ios_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ios"
	"ios/internal/graph"
)

// TestEngineCache: an engine's own block cache makes a repeated
// Optimize for the same (graph, options) search no block again and return
// the same schedule; other options are other searches.
func TestEngineCache(t *testing.T) {
	ctx := context.Background()
	eng := ios.NewEngine(ios.V100)
	g := ios.Figure2Block(1)
	first, err := eng.Optimize(ctx, g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := eng.BlockCacheStats()
	second, err := eng.Optimize(ctx, g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Schedule.String() != second.Schedule.String() {
		t.Fatal("cached call returned a different schedule")
	}
	st := eng.BlockCacheStats()
	if cold.Misses == 0 || st.Misses != cold.Misses || st.Hits-cold.Hits != int64(second.Stats.Blocks) {
		t.Fatalf("block cache stats %+v after one search, %+v after a repeat; want every repeat block a hit", cold, st)
	}
	// Different options are a different key.
	if _, err := eng.Optimize(ctx, g, ios.Options{Strategies: ios.ParallelOnly}); err != nil {
		t.Fatal(err)
	}
	if after := eng.BlockCacheStats(); after.Misses == st.Misses {
		t.Fatalf("block cache stats after distinct options = %+v, want new misses", after)
	}
}

// TestEngineCacheRebindsAcrossEqualGraphs: two separately built,
// structurally identical graphs share their block keys (content
// fingerprints); a hit must return a schedule bound to the CALLER's graph
// so the engine's own Optimize output always passes its own Measure.
func TestEngineCacheRebindsAcrossEqualGraphs(t *testing.T) {
	ctx := context.Background()
	eng := ios.NewEngine(ios.V100)
	g1, g2 := ios.Figure2Block(1), ios.Figure2Block(1)
	if _, err := eng.Optimize(ctx, g1, ios.Options{}); err != nil {
		t.Fatal(err)
	}
	cold := eng.BlockCacheStats()
	res2, err := eng.Optimize(ctx, g2, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.BlockCacheStats(); st.Misses != cold.Misses || st.Hits == cold.Hits {
		t.Fatalf("structurally identical graph missed the cache: %+v, then %+v", cold, st)
	}
	if res2.Schedule.Graph != g2 {
		t.Fatal("cache hit returned a schedule bound to the other graph value")
	}
	if _, err := eng.Measure(ctx, g2, res2.Schedule); err != nil {
		t.Fatalf("engine's own Optimize output failed its own Measure: %v", err)
	}
}

// TestEngineMeasureRejectsForeignSchedule: Measure must refuse a schedule
// whose stages reference another graph's nodes instead of silently
// re-wrapping it (the old API's behavior, which produced latencies for
// the wrong network).
func TestEngineMeasureRejectsForeignSchedule(t *testing.T) {
	ctx := context.Background()
	eng := ios.NewEngine(ios.V100)
	g1 := ios.Figure2Block(1)
	res, err := eng.Optimize(ctx, g1, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := ios.SqueezeNet(1)
	if _, err := eng.Measure(ctx, g2, res.Schedule); err == nil ||
		!strings.Contains(err.Error(), "different graph") {
		t.Fatalf("foreign schedule: err = %v, want different-graph error", err)
	}
	// A re-wrapped schedule that DOES reference g's nodes stays accepted
	// (the schedule-recipe reload path).
	rewrapped := &ios.Schedule{Stages: res.Schedule.Stages}
	lat, err := eng.Measure(ctx, g1, rewrapped)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Measure(ctx, g1, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if lat != want {
		t.Fatalf("re-wrapped schedule latency %g, want %g", lat, want)
	}
}

// TestEngineCancellation: a pre-cancelled context short-circuits every
// Engine method.
func TestEngineCancellation(t *testing.T) {
	eng := ios.NewEngine(ios.V100)
	g := ios.Figure2Block(1)
	res, err := eng.Optimize(context.Background(), g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Optimize(ctx, g, ios.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Optimize err = %v, want context.Canceled", err)
	}
	if _, err := eng.Measure(ctx, g, res.Schedule); !errors.Is(err, context.Canceled) {
		t.Fatalf("Measure err = %v, want context.Canceled", err)
	}
	if _, err := eng.Throughput(ctx, g, res.Schedule); !errors.Is(err, context.Canceled) {
		t.Fatalf("Throughput err = %v, want context.Canceled", err)
	}
}

// TestEngineProgressAndWorkers: the engine's progress callback sees the
// search.
func TestEngineProgressAndWorkers(t *testing.T) {
	var snaps int
	eng := ios.NewEngine(ios.V100, ios.WithProgress(func(ios.Progress) { snaps++ }))
	if _, err := eng.Optimize(context.Background(), ios.Figure2Block(1), ios.Options{}); err != nil {
		t.Fatal(err)
	}
	if snaps == 0 {
		t.Fatal("WithProgress callback never fired")
	}
}

// fixedBackend scales every simulated latency by wrapping the default
// backend — the minimal custom measurement substrate.
type scaledBackend struct {
	inner ios.Backend
	calls *int
}

func (b scaledBackend) Spec() ios.Device { return b.inner.Spec() }
func (b scaledBackend) Run(streams []ios.SimStream) ios.SimResult {
	*b.calls++
	return b.inner.Run(streams)
}
func (b scaledBackend) Fork() ios.Backend {
	return scaledBackend{inner: b.inner.Fork(), calls: b.calls}
}

// TestEngineWithBackend: a custom Backend receives every measurement the
// search performs and produces the same result as the built-in simulator.
func TestEngineWithBackend(t *testing.T) {
	ctx := context.Background()
	g := ios.Figure2Block(1)
	calls := 0
	eng := ios.NewEngine(ios.V100, ios.WithBackend(scaledBackend{inner: ios.NewSimBackend(ios.V100), calls: &calls}))
	got, err := eng.Optimize(ctx, g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("custom backend saw no measurements")
	}
	want, err := ios.NewEngine(ios.V100).Optimize(ctx, g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Schedule.String() != want.Schedule.String() {
		t.Fatalf("custom backend changed the schedule:\n%s\nvs\n%s", got.Schedule, want.Schedule)
	}
}

// TestGraphBatch pins the Graph.Batch helper.
func TestGraphBatch(t *testing.T) {
	if got := ios.InceptionV3(16).Batch(); got != 16 {
		t.Fatalf("InceptionV3(16).Batch() = %d", got)
	}
	if got := ios.NewGraph("empty").Batch(); got != 1 {
		t.Fatalf("empty graph Batch() = %d, want 1", got)
	}
}

// TestEngineCacheKeepsCutTwinsApart: RandWire's builder cuts blocks that
// its JSON form does not carry, so the built graph and its JSON twin
// partition differently and are different searches. An engine that
// searched the built graph first must answer the twin with the twin's own
// schedule, the one an engine with a fresh block cache finds.
func TestEngineCacheKeepsCutTwinsApart(t *testing.T) {
	ctx := context.Background()
	g := ios.RandWire(1)
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := graph.FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	cached := ios.NewEngine(ios.V100)
	if _, err := cached.Optimize(ctx, g, ios.Options{}); err != nil {
		t.Fatal(err)
	}
	built := cached.BlockCacheStats()
	got, err := cached.Optimize(ctx, twin, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := cached.BlockCacheStats(); st.Misses == built.Misses {
		t.Errorf("the JSON twin searched no block of its own: block cache %+v, then %+v", built, st)
	}
	want, err := ios.NewEngine(ios.V100).Optimize(ctx, twin, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Schedule.String() != want.Schedule.String() {
		t.Errorf("the cached engine answered the JSON twin with %d stages, its own search finds %d",
			len(got.Schedule.Stages), len(want.Schedule.Stages))
	}
}
