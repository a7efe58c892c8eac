package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// TestStageWordIsTotal: every (latency, strategy) a slot can publish
// survives the one-word encoding bit for bit, the three words that carry
// no latency decode as such, nothing publishable collides with the
// in-flight pattern, and the slot stays two words.
func TestStageWordIsTotal(t *testing.T) {
	if size := unsafe.Sizeof(stageSlot{}); size != 16 {
		t.Fatalf("stageSlot is %d bytes, want 16: the memo is sized by it", size)
	}
	for _, lat := range []float64{0, math.SmallestNonzeroFloat64, 2.25e-6, math.MaxFloat64} {
		for _, merge := range []bool{false, true} {
			v := stageWord(lat, merge)
			got, gotMerge, ok := stageLatency(v)
			if !ok || gotMerge != merge || math.Float64bits(got) != math.Float64bits(lat) {
				t.Errorf("stageWord(%g, %v) = %#x decodes to (%g, %v, %v)", lat, merge, v, got, gotMerge, ok)
			}
			if v == stageInFlight || v == stageInfeasible || v == stageFailed {
				t.Errorf("stageWord(%g, %v) = %#x is a reserved word", lat, merge, v)
			}
		}
	}
	if v := stageWord(math.Min(math.Inf(1), math.Inf(1)), false); v != stageInfeasible {
		t.Errorf("no allowed strategy encodes as %#x, want stageInfeasible %#x", v, stageInfeasible)
	}
	for _, v := range []uint64{stageInfeasible, stageFailed, stageInFlight} {
		if _, _, ok := stageLatency(v); ok {
			t.Errorf("reserved word %#x decodes as a latency", v)
		}
	}
	if stageInFlight == stageInfeasible || stageInFlight == stageFailed || stageInfeasible == stageFailed {
		t.Error("reserved words collide")
	}
}

// TestClaimedSlotReadsInFlight: 0 is a latency, so a claimed slot must say
// it is in flight by itself — through growth too — until its claimant
// publishes, and acquiring the scratch again forgets everything but the size.
func TestClaimedSlotReadsInFlight(t *testing.T) {
	sc := new(scratch)
	sc.acquire(1, 1)
	sh := &sc.shards[0]
	const n = 1000
	for k := uint64(1); k <= n; k++ {
		sh.mu.Lock()
		s, inserted := sh.claim(k, hashKey(k))
		sh.mu.Unlock()
		if !inserted || s.val.Load() != stageInFlight {
			t.Fatalf("ending %d: claimed (inserted %v) slot reads %#x, want in flight", k, inserted, s.val.Load())
		}
		if k%2 == 0 {
			s.val.Store(stageWord(float64(k), k%4 == 0))
		}
	}
	tab := sh.tab.Load()
	for k := uint64(1); k <= n; k++ {
		s, found := tab.probe(k, hashKey(k))
		want := stageInFlight
		if k%2 == 0 {
			want = stageWord(float64(k), k%4 == 0)
		}
		if !found || s.val.Load() != want {
			t.Fatalf("ending %d after growth: found %v, reads %#x, want %#x", k, found, s.val.Load(), want)
		}
	}
	sc.acquire(1, 1)
	if sh.used != 0 || sh.tab.Load() != tab {
		t.Fatalf("acquired again: used %d, table replaced %v", sh.used, sh.tab.Load() != tab)
	}
	for k := uint64(1); k <= n; k++ {
		if _, found := tab.probe(k, hashKey(k)); found {
			t.Fatalf("ending %d survived the acquisition", k)
		}
	}
}

// TestWorkersOutliveTheBlock: the worker pool is the searcher's. An engine
// builds the workers its scratch lacks and no others, and points those it
// takes at its own block — worker 0 at the profiler it was handed, the rest
// at forks of it — with nothing of the previous block's left on them.
func TestWorkersOutliveTheBlock(t *testing.T) {
	_, big := reuseBlocks(t)
	sc := new(scratch)
	first := newEngine(big, v100Profiler(), Options{Workers: 4}.withDefaults(), sc)
	if _, _, err := first.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	first.close()
	pool := append([]*engineWorker(nil), sc.workers...)
	prof := v100Profiler()
	second := newEngine(big, prof, Options{Workers: 2}.withDefaults(), sc)
	if len(pool) != 4 || len(sc.workers) != 4 || len(second.workers) != 2 {
		t.Fatalf("pool of %d workers, %d after a two-worker engine which took %d; want 4, 4 and 2", len(pool), len(sc.workers), len(second.workers))
	}
	for i, w := range sc.workers {
		if w != pool[i] {
			t.Errorf("worker %d was rebuilt although the scratch held it", i)
		}
	}
	for i, w := range second.workers {
		if w.e != second || w.stats != (Stats{}) || w.err != nil || (i == 0) != (w.prof == prof) || (i > 0 && w.prof.Measurements != 0) {
			t.Errorf("worker %d still carries the previous block: engine %p (want %p), stats %+v, err %v, profiler handed %v with %d measurements",
				i, w.e, second, w.stats, w.err, w.prof == prof, w.prof.Measurements)
		}
	}
}

// lyingBackend answers its plan's lie from the after-th simulator run on.
type lyingBackend struct {
	profile.Backend
	*liePlan
}

type liePlan struct {
	runs  atomic.Int64
	after int64
	lie   float64
}

func (b lyingBackend) Run(streams []gpusim.Stream) gpusim.Result {
	res := b.Backend.Run(streams)
	if b.runs.Add(1) >= b.after {
		// Give the other workers time to queue up behind this ending.
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		res.Latency = b.lie
	}
	return res
}

func (b lyingBackend) Fork() profile.Backend {
	return lyingBackend{b.Backend.Fork(), b.liePlan}
}

func lyingProfiler(after int64, lie float64) *profile.Profiler {
	return profile.NewWithBackend(lyingBackend{profile.SimBackend(gpusim.TeslaV100), &liePlan{after: after, lie: lie}}, profile.Options{})
}

// graphBlock is a block and the graph it was cut from.
type graphBlock struct {
	g *graph.Graph
	*graph.Block
}

// reuseBlocks is a pool of random-DAG blocks from one operator to past
// smallBlockOps, and the largest of them.
func reuseBlocks(t *testing.T) (pool []graphBlock, big *graph.Block) {
	t.Helper()
	one := graph.New("one")
	one.Conv("a", one.Input("in", graph.Shape{N: 1, C: 8, H: 16, W: 16}), graph.ConvOpts{Out: 8, Kernel: 3})
	graphs := []*graph.Graph{one}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 48; i++ {
		graphs = append(graphs, randomGraph(rng))
	}
	for i, g := range graphs {
		blocks, err := g.Partition([]int{0, 0, 3, 0, 0, 6}[i%6])
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			pool = append(pool, graphBlock{g, b})
			if big == nil || len(b.Nodes) > len(big.Nodes) {
				big = b
			}
		}
	}
	if len(big.Nodes) <= smallBlockOps {
		t.Fatalf("largest random block has %d operators: none takes the parallel engine", len(big.Nodes))
	}
	return pool, big
}

// stagesCost re-measures a stage list on a fresh profiler.
func stagesCost(t *testing.T, stages []schedule.Stage) float64 {
	t.Helper()
	check := v100Profiler()
	var sum float64
	for _, st := range stages {
		l, err := check.MeasureStage(st)
		if err != nil {
			t.Fatal(err)
		}
		sum += l
	}
	return sum
}

// TestLyingBackendIsAMeasurementError: a backend answering NaN, ±Inf or a
// negative latency must fail the search — its bits would otherwise be read
// as a merged stage, an infeasible one or a failure that never set stop —
// with every worker drained and no goroutine left waiting on a shard.
func TestLyingBackendIsAMeasurementError(t *testing.T) {
	_, b := reuseBlocks(t)
	for _, lie := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for _, workers := range []int{1, 4} {
			baseline := runtime.NumGoroutine()
			type out struct {
				stages []schedule.Stage
				err    error
			}
			done := make(chan out, 1)
			go func() {
				// The first runs are the operators' solo durations.
				stages, _, err := OptimizeBlockContext(context.Background(), b, lyingProfiler(int64(len(b.Nodes))+20, lie), Options{Workers: workers})
				done <- out{stages, err}
			}()
			select {
			case o := <-done:
				if o.err == nil || o.stages != nil {
					t.Fatalf("lie %v workers %d: search returned %d stages, err %v; want a measurement error", lie, workers, len(o.stages), o.err)
				}
				if !strings.Contains(o.err.Error(), "invalid latency") || !strings.Contains(o.err.Error(), fmt.Sprintf("of block %d", b.Index)) {
					t.Errorf("lie %v workers %d: error %q does not name the invalid latency, the block and the ending", lie, workers, o.err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("lie %v workers %d: search did not return: a waiter is asleep on its shard", lie, workers)
			}
			waitForGoroutines(t, baseline)
		}
	}
}

// TestPropertyScratchReuseIsInvisible pushes random-DAG blocks of every
// size, in random order and under every option set of
// TestPropertyStatesAreOrderIdeals, through one scratch: each block's
// states, costs, choices, stages and statistics equal those of an engine
// over a fresh scratch and of the reference recursion — but for
// measurements, which equal the fresh engine's and are at most the
// reference's (it measures the endings the engine's bound skips). Every few blocks
// the scratch is first dirtied by a search that is cancelled inside a
// state, or whose backend fails mid-level, so that whatever such a search
// leaves behind — another block's endings under the same bitmasks, a
// failed slot, half a level of costs and choices — is shown to be cleared.
func TestPropertyScratchReuseIsInvisible(t *testing.T) {
	pool, big := reuseBlocks(t)
	settings := []Options{
		{},
		{Pruning: Pruning{R: 1, S: 1}},
		{Pruning: Pruning{R: -1, S: 2}},
		Unpruned,
		{Strategies: MergeOnly},
		{Strategies: ParallelOnly, Pruning: Pruning{R: 2, S: 1}},
	}
	// Simulator runs of a whole search of the big block: dirtying searches
	// are stopped halfway through them.
	counter := &cancelPlan{after: -1}
	if _, _, err := OptimizeBlockContext(context.Background(), big, profile.NewWithBackend(cancelAfterBackend{profile.SimBackend(gpusim.TeslaV100), counter}, profile.Options{}), Options{}); err != nil {
		t.Fatal(err)
	}
	halfway := counter.runs.Load() / 2

	for _, workers := range []int{1, 4} {
		sc := new(scratch)
		// dirty runs a search of the big block over sc that must end in an
		// error, partway through the compute pass.
		dirty := func(ctx context.Context, prof *profile.Profiler, plan *cancelPlan) error {
			e := newEngine(big, prof, Options{Workers: workers}.withDefaults(), sc)
			defer e.close()
			if plan != nil {
				plan.held = func() {
					for !e.stop.Load() {
						runtime.Gosched()
					}
				}
			}
			stages, _, err := e.run(ctx)
			if err == nil || stages != nil {
				t.Fatalf("workers %d: dirtying search succeeded", workers)
			}
			var published int
			for _, c := range sc.last {
				if !c.ending.IsEmpty() {
					published++
				}
			}
			if published == 0 || published == len(sc.last) {
				t.Fatalf("workers %d: dirtying search published %d of %d states: it did not stop mid-compute", workers, published, len(sc.last))
			}
			return err
		}

		rng := rand.New(rand.NewSource(int64(29 + workers)))
		for i, pi := range rng.Perm(len(pool)) {
			g, b := pool[pi].g, pool[pi].Block
			opts := settings[i%len(settings)]
			opts.Workers = workers
			switch i % 7 {
			case 2:
				ctx, cancel := context.WithCancel(context.Background())
				plan := &cancelPlan{after: halfway, cancel: cancel}
				prof := profile.NewWithBackend(cancelAfterBackend{profile.SimBackend(gpusim.TeslaV100), plan}, profile.Options{})
				if err := dirty(ctx, prof, plan); !errors.Is(err, context.Canceled) {
					t.Fatalf("workers %d: cancelled dirtying search: err = %v", workers, err)
				}
				cancel()
			case 5:
				if err := dirty(context.Background(), lyingProfiler(halfway, math.NaN()), nil); errors.Is(err, context.Canceled) {
					t.Fatalf("workers %d: failing dirtying search: err = %v", workers, err)
				}
			}

			where := fmt.Sprintf("workers %d, search %d (%d ops, %s)", workers, i, len(b.Nodes), opts.Fingerprint())
			reusedProf, freshProf, refProf := v100Profiler(), v100Profiler(), v100Profiler()
			reused := newEngine(b, reusedProf, opts.withDefaults(), sc)
			stages, stats, err := reused.run(context.Background())
			reused.close()
			if err != nil {
				t.Fatalf("%s: reused scratch: %v", where, err)
			}
			fresh := newEngine(b, freshProf, opts.withDefaults(), new(scratch))
			freshStages, freshStats, err := fresh.run(context.Background())
			fresh.close()
			if err != nil {
				t.Fatalf("%s: fresh scratch: %v", where, err)
			}
			refStages, refStats, err := optimizeBlockReference(b, refProf, opts)
			if err != nil {
				t.Fatal(err)
			}

			if len(reused.states) != len(fresh.states) {
				t.Fatalf("%s: %d states over the reused scratch, %d over a fresh one", where, len(reused.states), len(fresh.states))
			}
			for id := range fresh.states {
				if reused.states[id] != fresh.states[id] || reused.cost[id] != fresh.cost[id] || reused.last[id] != fresh.last[id] {
					t.Fatalf("%s: state %v cost %g choice %+v over the reused scratch; %v %g %+v over a fresh one", where,
						reused.states[id], reused.cost[id], reused.last[id], fresh.states[id], fresh.cost[id], fresh.last[id])
				}
			}
			got := stagesString(g, stages)
			if want := stagesString(g, freshStages); got != want {
				t.Fatalf("%s: schedule over the reused scratch:\n%s\nover a fresh one:\n%s", where, got, want)
			}
			if want := stagesString(g, refStages); got != want {
				t.Fatalf("%s: schedule over the reused scratch:\n%s\nreference:\n%s", where, got, want)
			}
			if got, want := stagesCost(t, stages), stagesCost(t, refStages); got != want {
				t.Errorf("%s: cost %g over the reused scratch, reference %g", where, got, want)
			}
			if stats != freshStats || stats.States != refStats.States || stats.Transitions != refStats.Transitions {
				t.Errorf("%s: stats %+v over the reused scratch, %+v fresh, %+v reference", where, stats, freshStats, refStats)
			}
			if reusedProf.Measurements != freshProf.Measurements || reusedProf.Measurements > refProf.Measurements {
				t.Errorf("%s: %d measurements over the reused scratch, %d fresh, at most %d wanted (the reference's)", where,
					reusedProf.Measurements, freshProf.Measurements, refProf.Measurements)
			}
		}
	}
}
