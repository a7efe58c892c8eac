package core

import (
	"context"
	"math/rand"
	"testing"

	"ios/internal/baseline"
	"ios/internal/bitset"
	"ios/internal/graph"
	"ios/internal/schedule"
)

// randomGraph builds a random layered CNN graph: each layer's nodes draw
// inputs from earlier layers; multi-input nodes are adds over same-shaped
// tensors.
func randomGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New("random")
	in := g.Input("in", graph.Shape{N: 1, C: 8, H: 16, W: 16})
	prev := []*graph.Node{}
	id := 0
	layers := 2 + rng.Intn(3)
	for l := 0; l < layers; l++ {
		width := 1 + rng.Intn(3)
		var cur []*graph.Node
		for i := 0; i < width; i++ {
			id++
			name := "n" + string(rune('a'+id))
			if len(prev) == 0 || rng.Float64() < 0.3 {
				cur = append(cur, g.Conv(name, in, graph.ConvOpts{Out: 8, Kernel: 1 + 2*rng.Intn(2)}))
				continue
			}
			src := prev[rng.Intn(len(prev))]
			if rng.Float64() < 0.3 && len(prev) >= 2 {
				other := prev[rng.Intn(len(prev))]
				if other != src {
					cur = append(cur, g.Add(name, src, other))
					continue
				}
			}
			cur = append(cur, g.Conv(name, src, graph.ConvOpts{Out: 8, Kernel: 3}))
		}
		prev = cur
	}
	// Terminate every dangling tensor in a final concat: real CNNs have
	// no dead-end computation, and the paper's block-by-block optimality
	// implicitly relies on that (a sink op stranded before a block cut
	// would otherwise be forced to finish before later blocks start,
	// which a global scheduler need not do).
	var sinks []*graph.Node
	for _, n := range g.Nodes {
		if n.Op.Kind != graph.OpInput && len(n.Outputs()) == 0 {
			sinks = append(sinks, n)
		}
	}
	if len(sinks) > 1 {
		g.Concat("out", sinks...)
	}
	return g
}

// TestPropertyOptimizeValidAndDominant: on random graphs, the IOS schedule
// is always valid and never slower than either baseline under the same
// cost model.
func TestPropertyOptimizeValidAndDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: builder produced invalid graph: %v", trial, err)
		}
		prof := v100Profiler()
		res, err := OptimizeContext(context.Background(), g, prof, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v\n%s", trial, err, res.Schedule)
		}
		iosLat, err := prof.MeasureSchedule(res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := baseline.Sequential(g)
		if err != nil {
			t.Fatal(err)
		}
		seqLat, err := prof.MeasureSchedule(seq)
		if err != nil {
			t.Fatal(err)
		}
		grd, err := baseline.Greedy(g)
		if err != nil {
			t.Fatal(err)
		}
		grdLat, err := prof.MeasureSchedule(grd)
		if err != nil {
			t.Fatal(err)
		}
		if iosLat > seqLat*(1+1e-9) {
			t.Errorf("trial %d: IOS %g slower than sequential %g", trial, iosLat, seqLat)
		}
		if iosLat > grdLat*(1+1e-9) {
			t.Errorf("trial %d: IOS %g slower than greedy %g", trial, iosLat, grdLat)
		}
	}
}

// TestPropertyDeterministicSearch: the DP is deterministic — repeated runs
// produce identical schedules and costs.
func TestPropertyDeterministicSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng)
		r1, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Schedule.String() != r2.Schedule.String() {
			t.Fatalf("trial %d: nondeterministic schedules:\n%s\nvs\n%s",
				trial, r1.Schedule, r2.Schedule)
		}
		if r1.Stats.States != r2.Stats.States || r1.Stats.Transitions != r2.Stats.Transitions {
			t.Errorf("trial %d: nondeterministic stats: %+v vs %+v", trial, r1.Stats, r2.Stats)
		}
	}
}

// TestPropertyCostMatchesMeasured: the DP's internal cost for a block must
// equal the re-measured latency of the emitted stages (cache coherence
// between search and measurement).
func TestPropertyCostMatchesMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng)
		prof := v100Profiler()
		blocks, err := g.Partition(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			stages, _, err := OptimizeBlockContext(context.Background(), b, prof, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Re-measure and re-run: identical stage lists must produce
			// identical latency sums on a fresh profiler.
			fresh := v100Profiler()
			var sum1, sum2 float64
			for _, st := range stages {
				l1, err := prof.MeasureStage(st)
				if err != nil {
					t.Fatal(err)
				}
				l2, err := fresh.MeasureStage(st)
				if err != nil {
					t.Fatal(err)
				}
				sum1 += l1
				sum2 += l2
			}
			if sum1 != sum2 {
				t.Errorf("trial %d block %d: measurement not reproducible: %g vs %g",
					trial, b.Index, sum1, sum2)
			}
		}
	}
}

// stagesString renders a stage list for bit-exact schedule comparison.
func stagesString(g *graph.Graph, stages []schedule.Stage) string {
	s := &schedule.Schedule{Graph: g, Stages: stages}
	return s.String()
}

// TestPropertyEngineMatchesReference: the parallel bottom-up engine must
// reproduce the original memoized recursion exactly — same stages, same
// measured cost, same States/Transitions — on random DAGs, for every
// strategy set, at both Workers=1 and Workers=4 (run under -race, this also
// exercises the level-parallel paths). Measurements are at most the
// reference's, which measures every ending the engine's bound skips, and
// the same at both worker counts.
func TestPropertyEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	strategies := []StrategySet{Both, ParallelOnly, MergeOnly}
	prunings := []Pruning{DefaultPruning, {R: 2, S: 2}, {R: -1, S: -1}}
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng)
		blocks, err := g.Partition(0)
		if err != nil {
			t.Fatal(err)
		}
		strat := strategies[trial%len(strategies)]
		prune := prunings[trial%len(prunings)]
		for _, b := range blocks {
			refProf := v100Profiler()
			refStages, refStats, refErr := optimizeBlockReference(b, refProf, Options{Strategies: strat, Pruning: prune})
			if refErr != nil {
				t.Fatalf("trial %d: reference: %v", trial, refErr)
			}
			measured := -1
			for _, workers := range []int{1, 4} {
				prof := v100Profiler()
				stages, stats, err := OptimizeBlockContext(context.Background(), b, prof, Options{Strategies: strat, Pruning: prune, Workers: workers})
				if err != nil {
					t.Fatalf("trial %d workers %d: %v", trial, workers, err)
				}
				if got, want := stagesString(g, stages), stagesString(g, refStages); got != want {
					t.Fatalf("trial %d block %d workers %d (%v, %v): schedule mismatch:\n%s\nvs reference\n%s",
						trial, b.Index, workers, strat, prune, got, want)
				}
				if stats.States != refStats.States || stats.Transitions != refStats.Transitions {
					t.Errorf("trial %d block %d workers %d: stats %+v != reference %+v",
						trial, b.Index, workers, stats, refStats)
				}
				if stats.Measurements > refProf.Measurements || (measured >= 0 && stats.Measurements != measured) {
					t.Errorf("trial %d block %d workers %d: %d measurements, reference %d, one worker %d",
						trial, b.Index, workers, stats.Measurements, refProf.Measurements, measured)
				}
				measured = stats.Measurements
				// Bit-identical costs: re-measure both stage lists on one
				// fresh profiler and compare exactly.
				check := v100Profiler()
				var got, want float64
				for _, st := range stages {
					l, err := check.MeasureStage(st)
					if err != nil {
						t.Fatal(err)
					}
					got += l
				}
				for _, st := range refStages {
					l, err := check.MeasureStage(st)
					if err != nil {
						t.Fatal(err)
					}
					want += l
				}
				if got != want {
					t.Errorf("trial %d block %d workers %d: cost %g != reference %g",
						trial, b.Index, workers, got, want)
				}
			}
		}
	}
}

// TestPropertyWorkersInvariance: whole-graph optimization is bit-identical
// across worker counts, including the search statistics.
func TestPropertyWorkersInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng)
		r1, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		r4, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Schedule.String() != r4.Schedule.String() {
			t.Fatalf("trial %d: schedules differ across worker counts:\n%s\nvs\n%s",
				trial, r1.Schedule, r4.Schedule)
		}
		if r1.Stats.States != r4.Stats.States ||
			r1.Stats.Transitions != r4.Stats.Transitions ||
			r1.Stats.Measurements != r4.Stats.Measurements {
			t.Errorf("trial %d: stats differ across worker counts: %+v vs %+v",
				trial, r1.Stats, r4.Stats)
		}
	}
}

// engineStateSet lists the states the engine's discovery pass finds.
func engineStateSet(t *testing.T, b *graph.Block, opts Options) map[bitset.Set]bool {
	t.Helper()
	e := newEngine(b, v100Profiler(), opts.withDefaults(), new(scratch))
	defer e.close()
	if err := e.discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	set := make(map[bitset.Set]bool, len(e.states))
	for _, s := range e.states {
		if set[s] {
			t.Fatalf("engine lists state %v twice", s)
		}
		set[s] = true
	}
	return set
}

// referenceStateSet is the set of states the reference recursion memoizes.
func referenceStateSet(t *testing.T, b *graph.Block, opts Options) map[bitset.Set]bool {
	t.Helper()
	bs := &refScheduler{
		b: b, prof: v100Profiler(), opts: opts.withDefaults(),
		cost:   make(map[bitset.Set]float64),
		last:   make(map[bitset.Set]choice),
		stages: make(map[bitset.Set]stageResult),
	}
	if _, err := bs.scheduler(b.All()); err != nil {
		t.Fatal(err)
	}
	set := make(map[bitset.Set]bool, len(bs.cost))
	for s := range bs.cost {
		set[s] = true
	}
	return set
}

// orderIdeals is the brute-force set of the block's non-empty order
// ideals: the subsets closed under predecessors. Small blocks only.
func orderIdeals(t *testing.T, b *graph.Block) map[bitset.Set]bool {
	t.Helper()
	if len(b.Nodes) > 20 {
		t.Fatalf("block of %d operators is too large to list by brute force", len(b.Nodes))
	}
	set := make(map[bitset.Set]bool)
	for s := bitset.Set(1); s <= b.All(); s++ {
		ideal := true
		for i := s.NextAfter(-1); i >= 0 && ideal; i = s.NextAfter(i) {
			ideal = b.Preds(i).SubsetOf(s)
		}
		if ideal {
			set[s] = true
		}
	}
	return set
}

func sameStateSet(a, b map[bitset.Set]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if !b[s] {
			return false
		}
	}
	return true
}

// TestPropertyStatesAreOrderIdeals is the lemma the engine's discovery
// rests on: a single sink is an admissible, feasible ending under every
// pruning bound and strategy set, so the states the recursion reaches are
// exactly the block's order ideals — which the engine lists by peeling
// sinks, without enumerating an ending. Checked as sets, against both the
// reference recursion's memo and a brute-force listing.
func TestPropertyStatesAreOrderIdeals(t *testing.T) {
	check := func(name string, g *graph.Graph, maxOps int, opts Options) {
		t.Helper()
		blocks, err := g.Partition(maxOps)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			got := engineStateSet(t, b, opts)
			if want := referenceStateSet(t, b, opts); !sameStateSet(got, want) {
				t.Fatalf("%s block %d (%d ops, max %d, %s): engine lists %d states, the reference recursion memoizes %d",
					name, b.Index, len(b.Nodes), maxOps, opts.Fingerprint(), len(got), len(want))
			}
			if want := orderIdeals(t, b); !sameStateSet(got, want) {
				t.Fatalf("%s block %d (%d ops, max %d, %s): engine lists %d states, the block has %d order ideals",
					name, b.Index, len(b.Nodes), maxOps, opts.Fingerprint(), len(got), len(want))
			}
		}
	}
	settings := []Options{
		{}, // the paper's r=3, s=8
		{Pruning: Pruning{R: 1, S: 1}},
		{Pruning: Pruning{R: -1, S: 2}},
		Unpruned,
		{Strategies: MergeOnly},
		{Strategies: ParallelOnly, Pruning: Pruning{R: 2, S: 1}},
	}

	one := graph.New("one")
	one.Conv("a", one.Input("in", graph.Shape{N: 1, C: 8, H: 16, W: 16}), graph.ConvOpts{Out: 8, Kernel: 3})
	chain := graph.New("chain")
	x := chain.Input("in", graph.Shape{N: 1, C: 8, H: 16, W: 16})
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		x = chain.Conv(name, x, graph.ConvOpts{Out: 8, Kernel: 3})
	}
	for _, opts := range settings {
		check("one-operator", one, 0, opts)
		check("chain", chain, 0, opts)
		check("chain", chain, 2, opts)
	}

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 24; trial++ {
		g := randomGraph(rng)
		for _, opts := range settings {
			for _, maxOps := range []int{0, 3, 6} {
				check("random", g, maxOps, opts)
			}
		}
	}
}
