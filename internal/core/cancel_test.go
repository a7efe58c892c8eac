package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ios/internal/gpusim"
	"ios/internal/models"
	"ios/internal/profile"
)

// TestOptimizeContextPreCancelled: a context that is already dead must be
// refused before a single stage is measured.
func TestOptimizeContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prof := v100Profiler()
	res, err := OptimizeContext(ctx, models.InceptionE(1), prof, Options{})
	if res != nil {
		t.Fatal("pre-cancelled search returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if prof.Measurements != 0 {
		t.Fatalf("pre-cancelled search performed %d measurements, want 0", prof.Measurements)
	}
}

// TestOptimizeContextMidSearchCancel cancels deterministically mid-search
// (from the first progress callback, i.e. after the engine has provably
// started) and requires the whole worker pool to drain within a bounded
// time, returning the wrapped context error and no partial schedule.
// Run under -race this also proves the drain is free of data races.
func TestOptimizeContextMidSearchCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Bool
		cancelOnFirstProgress := func(Progress) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		}
		type out struct {
			res *Result
			err error
		}
		done := make(chan out, 1)
		go func() {
			res, err := OptimizeWithProgress(ctx, models.InceptionV3(1), v100Profiler(), Options{Workers: workers}, cancelOnFirstProgress)
			done <- out{res, err}
		}()
		select {
		case o := <-done:
			if o.res != nil {
				t.Fatalf("workers=%d: cancelled search returned a result", workers)
			}
			if !errors.Is(o.err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, o.err)
			}
			if !strings.Contains(o.err.Error(), "cancelled") {
				t.Fatalf("workers=%d: err %q does not say the search was cancelled", workers, o.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: cancelled search did not drain within 30s", workers)
		}
		cancel()
	}
}

// cancelAfterBackend cancels the search's context from inside its n-th
// simulator run — that is, from inside a stage measurement, which the
// one-pass engine makes from inside a state's ending enumeration — and
// then calls held, on the measuring worker's goroutine, before the run
// proceeds.
type cancelAfterBackend struct {
	profile.Backend
	*cancelPlan
}

type cancelPlan struct {
	runs   atomic.Int64
	after  int64
	cancel context.CancelFunc
	held   func()
}

func (b cancelAfterBackend) Run(streams []gpusim.Stream) gpusim.Result {
	if b.runs.Add(1) == b.after {
		b.cancel()
		b.held()
	}
	return b.Backend.Run(streams)
}

func (b cancelAfterBackend) Fork() profile.Backend {
	return cancelAfterBackend{b.Backend.Fork(), b.cancelPlan}
}

// waitForGoroutines fails the test unless the goroutine count comes back
// down to what it was before a search.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the search: the engine leaked", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestEngineCancelInsideState cancels the RandWire hardest block's search
// in the middle of the compute pass, where a worker is hundreds of endings
// into one state. The engine must return the wrapped context error within
// one in-flight stage measurement per worker, leave no goroutine behind,
// start no new measurement, and must not have published a cost for any
// state it abandoned halfway:
// every cost and choice it did publish equals the uncancelled search's.
func TestEngineCancelInsideState(t *testing.T) {
	b, err := HardestBlock(models.RandWire(1))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}.Canonical()
	full := newEngine(b, v100Profiler(), opts, new(scratch))
	defer full.close()
	if _, _, err := full.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	const cancelAt = 3000 // simulator runs: a tenth of the way through the compute pass
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		plan := &cancelPlan{after: cancelAt, cancel: cancel}
		prof := profile.NewWithBackend(cancelAfterBackend{profile.SimBackend(gpusim.TeslaV100), plan}, profile.Options{})
		opts.Workers = workers
		e := newEngine(b, prof, opts, new(scratch))
		// Hold the cancelling run until the stop flag is up: a
		// context.AfterFunc goroutine raises it, and without the wait the
		// test would be timing the scheduler rather than the engine. A
		// one-worker engine measures on the goroutine that counts its
		// transitions, so there the count at the cancel can be read too.
		transitionsAtCancel := -1
		var runsAtStop int64
		plan.held = func() {
			for !e.stop.Load() {
				runtime.Gosched()
			}
			runsAtStop = plan.runs.Load()
			if len(e.workers) == 1 {
				transitionsAtCancel = e.workers[0].stats.Transitions
			}
		}
		done := make(chan error, 1)
		go func() {
			stages, _, err := e.run(ctx)
			if stages != nil {
				err = errors.New("cancelled engine returned stages")
			}
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: cancelled engine did not drain within 30s", workers)
		}
		e.close()
		cancel()

		// Once the stop flag is up no new measurement starts: one in
		// flight per worker is at most two simulator runs (concurrent and
		// merge) each. (The other workers run on freely until then.)
		if got, limit := plan.runs.Load(), runsAtStop+int64(2*len(e.workers)); got > limit {
			t.Errorf("workers=%d: %d simulator runs, want at most %d (%d when the stop flag went up plus one in-flight measurement per worker)",
				workers, got, limit, runsAtStop)
		}
		if len(e.workers) == 1 && e.workers[0].stats.Transitions != transitionsAtCancel {
			t.Errorf("workers=1: %d transitions costed, %d when the cancel landed: the enumeration ran on",
				e.workers[0].stats.Transitions, transitionsAtCancel)
		}
		var published int
		for id := range e.states {
			if e.last[id].ending.IsEmpty() {
				continue
			}
			published++
			if e.states[id] != full.states[id] || e.cost[id] != full.cost[id] || e.last[id] != full.last[id] {
				t.Fatalf("workers=%d: state %v published cost %g choice %+v, uncancelled search has %g %+v",
					workers, e.states[id], e.cost[id], e.last[id], full.cost[id], full.last[id])
			}
		}
		if published == 0 || published == len(e.states) {
			t.Errorf("workers=%d: %d of %d states published: the cancel did not land mid-compute", workers, published, len(e.states))
		}
		waitForGoroutines(t, baseline)
	}
}

// TestOptimizeContextUncancelledIsBitIdentical: threading a live context
// through the search must not change anything — schedules, costs, and
// search statistics all match the context-free API.
func TestOptimizeContextUncancelledIsBitIdentical(t *testing.T) {
	g := models.InceptionE(1)
	want, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Schedule.String() != want.Schedule.String() {
		t.Fatalf("schedules differ:\n%s\nvs\n%s", got.Schedule, want.Schedule)
	}
	if got.Stats.States != want.Stats.States ||
		got.Stats.Transitions != want.Stats.Transitions ||
		got.Stats.Measurements != want.Stats.Measurements {
		t.Fatalf("stats differ: %+v vs %+v", got.Stats, want.Stats)
	}
}

// TestOptimizeBlockContextPreCancelled covers the single-block entry
// point's context check.
func TestOptimizeBlockContextPreCancelled(t *testing.T) {
	g := models.Figure2Block(1)
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := OptimizeBlockContext(ctx, blocks[0], v100Profiler(), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProgressReporting checks the Progress stream: monotonic cumulative
// counters, sane block/level fields, and final totals that agree with the
// returned Stats.
func TestProgressReporting(t *testing.T) {
	g := models.InceptionE(1)
	var snaps []Progress
	res, err := OptimizeWithProgress(context.Background(), g, v100Profiler(), Options{},
		func(p Progress) { snaps = append(snaps, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	var prev Progress
	for i, p := range snaps {
		if p.Block < 1 || p.Block > p.Blocks {
			t.Fatalf("snapshot %d: block %d of %d", i, p.Block, p.Blocks)
		}
		if p.Phase != "discover" && p.Phase != "compute" {
			t.Fatalf("snapshot %d: unknown phase %q", i, p.Phase)
		}
		if p.Level < 1 || p.Level > p.Levels {
			t.Fatalf("snapshot %d: level %d of %d", i, p.Level, p.Levels)
		}
		if p.States < prev.States || p.Transitions < prev.Transitions || p.Measurements < prev.Measurements {
			t.Fatalf("snapshot %d went backwards: %+v after %+v", i, p, prev)
		}
		prev = p
	}
	last := snaps[len(snaps)-1]
	if last.States != res.Stats.States || last.Transitions != res.Stats.Transitions {
		t.Fatalf("final progress (%d states, %d transitions) disagrees with stats (%d, %d)",
			last.States, last.Transitions, res.Stats.States, res.Stats.Transitions)
	}
	// The up-front lowering pass is excluded from progress, so the final
	// snapshot can only undercount relative to Stats.Measurements.
	if last.Measurements > res.Stats.Measurements {
		t.Fatalf("progress measurements %d exceed stats %d", last.Measurements, res.Stats.Measurements)
	}
}

// TestOptionsValidate pins the -1 convention: bounds below -1 and negative
// block caps are configuration errors, everything else passes.
func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		{},
		Unpruned,
		{Pruning: Pruning{R: 3, S: 8}},
		{Pruning: Pruning{R: -1}},
		{MaxBlockOps: 40, Workers: -3},
	}
	for _, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	invalid := []Options{
		{Pruning: Pruning{R: -2}},
		{Pruning: Pruning{S: -7}},
		{MaxBlockOps: -1},
	}
	for _, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", o)
		}
	}
	// Optimize validates implicitly.
	if _, err := OptimizeContext(context.Background(), models.Figure2Block(1), v100Profiler(), Options{Pruning: Pruning{R: -2}}); err == nil {
		t.Error("Optimize accepted invalid pruning bounds")
	}
}
