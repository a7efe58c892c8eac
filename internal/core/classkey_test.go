package core

import (
	"context"
	"fmt"
	"testing"

	"ios/internal/bitset"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/profile"
)

// TestPropertyClassKeysNameOneStage pins what lets the stage memo key a stage
// by its class form (memoKey): any two endings the engine gives one class key
// build byte-equal measurement keys — Profiler.stageKey's id key, translated
// here from the long form of the groups groupsOf derives — so they measure
// bit-identically. Over every zoo network at batches 1, 16 and 64 and over
// the random-DAG blocks, at one worker and four, after a whole search, every
// ending of every state is keyed as the search keyed it. Merge candidates
// keep their ending key, as does every ending of a profiler with no
// measurement cache and of a block of bitset.MaxElems operators. NasNet-A and
// RandWire are checked on their hardest blocks; -short and the race detector
// keep to batch 1.
func TestPropertyClassKeysNameOneStage(t *testing.T) {
	type search struct {
		name string
		b    *graph.Block
	}
	var searches []search
	batches := []int{1, 16, 64}
	if testing.Short() || raceEnabled {
		batches = batches[:1]
	}
	for _, z := range models.Zoo() {
		for _, batch := range batches {
			g := z.Build(batch)
			if z.Name == "nasnet" || z.Name == "randwire" {
				b, err := HardestBlock(g)
				if err != nil {
					t.Fatal(err)
				}
				searches = append(searches, search{fmt.Sprintf("%s batch %d hardest block", z.Name, batch), b})
				continue
			}
			blocks, err := g.Partition(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range blocks {
				searches = append(searches, search{fmt.Sprintf("%s batch %d block %d", z.Name, batch, b.Index), b})
			}
		}
	}
	pool, _ := reuseBlocks(t)
	for i, gb := range pool {
		searches = append(searches, search{fmt.Sprintf("random block %d", i), gb.Block})
	}

	var endings, classKeyed, classes int
	for _, s := range searches {
		for _, workers := range []int{1, 4} {
			where := fmt.Sprintf("%s, %d workers", s.name, workers)
			cache := measure.NewCache()
			e := newEngine(s.b, cachedProfiler(cache), Options{Workers: workers}.Canonical(), new(scratch))
			if _, _, err := e.run(context.Background()); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			e.close()
			if !e.classKeys {
				t.Fatalf("%s: a cached profiler's block keys no stage by class", where)
			}
			n, keyed, distinct := checkClassKeys(t, where, e, cache)
			endings, classKeyed, classes = endings+n, classKeyed+keyed, classes+distinct
		}
	}
	t.Logf("%d distinct endings, %d of them class-keyed, under %d class keys", endings, classKeyed, classes)
	if classes >= classKeyed {
		t.Errorf("%d class-keyed endings take %d class keys: no two endings share a stage", classKeyed, classes)
	}

	// A profiler with no measurement cache has no kernel ids.
	b, err := HardestBlock(models.NasNetA(1))
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(b, v100Profiler(), Options{}.Canonical(), new(scratch))
	if e.classKeys {
		t.Error("a cache-less profiler's block keys stages by class")
	}
	if err := e.discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := e.workers[0]
	for _, s := range e.states {
		w.enum.forEach(b, s, e.opts.Pruning, e.solo, func(ending bitset.Set, comps []bitset.Set) bool {
			if k := w.memoKey(ending, comps); k != uint64(ending) {
				t.Fatalf("cache-less: ending %v keyed %#x", ending, k)
			}
			return true
		})
	}

	// A block of bitset.MaxElems operators: 63 branches off one input and
	// their concat. Its last operator's endings use classTag's bit.
	g := graph.New("wide")
	in := g.Input("in", graph.Shape{N: 1, C: 8, H: 8, W: 8})
	var branches []*graph.Node
	for i := 0; i < bitset.MaxElems-1; i++ {
		branches = append(branches, g.Conv(fmt.Sprintf("c%d", i), in, graph.ConvOpts{Out: 8, Kernel: 1}))
	}
	g.Concat("out", branches...)
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || len(blocks[0].Nodes) != bitset.MaxElems {
		t.Fatalf("the wide graph partitions into %d blocks, the first of %d operators; want one of %d", len(blocks), len(blocks[0].Nodes), bitset.MaxElems)
	}
	e = newEngine(blocks[0], cachedProfiler(measure.NewCache()), Options{}.Canonical(), new(scratch))
	if e.classKeys {
		t.Errorf("a block of %d operators keys stages by class", bitset.MaxElems)
	}
	last := bitset.Of(bitset.MaxElems - 1)
	e.workers[0].enum.class = append(e.workers[0].enum.class[:0], 0)
	if k := e.workers[0].memoKey(last, []bitset.Set{last}); k != uint64(last) {
		t.Errorf("the last operator of a %d-operator block keyed %#x, want its ending %#x", bitset.MaxElems, k, uint64(last))
	}
}

// checkClassKeys walks every ending of every state of e's searched block on
// its first worker, and fails unless each class key names one measurement
// key and each merge candidate keeps its ending key. It returns the distinct
// endings, those of them class-keyed, and the class keys.
func checkClassKeys(t *testing.T, where string, e *engine, cache *measure.Cache) (endings, classKeyed, classes int) {
	t.Helper()
	w := e.workers[0]
	seen := make(map[bitset.Set]bool)
	byKey := make(map[uint64]string)
	for _, s := range e.states {
		w.enum.forEach(e.b, s, e.opts.Pruning, e.solo, func(ending bitset.Set, comps []bitset.Set) bool {
			if seen[ending] {
				return true
			}
			seen[ending] = true
			k := w.memoKey(ending, comps)
			if e.mergeable(ending, comps) && k != uint64(ending) {
				t.Fatalf("%s: merge candidate %v keyed %#x, not by its ending", where, ending, k)
			}
			if k&classTag == 0 {
				if k != uint64(ending) {
					t.Fatalf("%s: ending %v keyed %#x: neither its ending nor a class key", where, ending, k)
				}
				return true
			}
			classKeyed++
			key := measurementKey(t, w.prof, cache, e.b, ending)
			if key == "" {
				t.Fatalf("%s: ending %v launches no kernel, so MeasureStage keys it by nothing, yet it has class key %#x", where, ending, k)
			}
			if first, ok := byKey[k]; !ok {
				byKey[k] = key
			} else if first != key {
				t.Fatalf("%s: ending %v shares class key %#x with an ending of another measurement key:\n%x\n%x", where, ending, k, key, first)
			}
			return true
		})
	}
	return len(seen), classKeyed, len(byKey)
}

// measurementKey is the id key Profiler.MeasureStage looks an ending's
// concurrent stage up under: its groups in groupsOf's order, each a stream of
// its operators' kernels unless it has none, in the long form, translated by
// the cache — empty for a stage that launches no kernel, which has none.
func measurementKey(t *testing.T, prof *profile.Profiler, cache *measure.Cache, b *graph.Block, ending bitset.Set) string {
	t.Helper()
	var streams []gpusim.Stream
	for _, gs := range groupsOf(b, ending) {
		var s gpusim.Stream
		for i := gs.NextAfter(-1); i >= 0; i = gs.NextAfter(i) {
			s = append(s, prof.Kernels(b.Nodes[i])...)
		}
		if len(s) > 0 {
			streams = append(streams, s)
		}
	}
	if len(streams) == 0 {
		return ""
	}
	key, ok := cache.Intern(nil, measure.AppendStreams(append([]byte(nil), prof.Context()...), streams))
	if !ok {
		t.Fatalf("ending %v: its long key does not translate", ending)
	}
	return string(key)
}
