package profile

import (
	"slices"
	"sync"
	"testing"

	"ios/internal/baseline"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
)

// The sharing rules of the lowering table. The package runs under
// -race -count=2 in CI, which is what makes the concurrent ones bite.

// TestForkCostIsIndependentOfTheTable: a fork is handed the slice header,
// not a copy — it allocates the same few objects after prelowering
// SqueezeNet as after NasNet-A, fifteen times the nodes — and answers every
// solo duration from the shared table without a measurement.
func TestForkCostIsIndependentOfTheTable(t *testing.T) {
	var allocs []float64
	for _, g := range []*graph.Graph{models.SqueezeNet(1), models.NasNetA(1)} {
		p := New(gpusim.TeslaV100)
		nodes := g.SchedulableNodes()
		p.Prelower(nodes)
		allocs = append(allocs, testing.AllocsPerRun(20, func() { p.Fork() }))
		f := p.Fork()
		for _, n := range nodes {
			if got, want := f.SoloDuration(n), p.SoloDuration(n); got != want {
				t.Fatalf("%s: fork times %s at %g, parent %g", g.Name, n.Name, got, want)
			}
		}
		if f.Measurements != 0 {
			t.Errorf("%s: fork ran %d measurements for nodes its parent prelowered", g.Name, f.Measurements)
		}
		if len(f.table) == 0 || &f.table[0] != &p.table[0] {
			t.Errorf("%s: a fork that stored nothing does not read its parent's table", g.Name)
		}
	}
	t.Logf("a fork allocates %.0f objects over %s, %.0f over %s", allocs[0], "SqueezeNet", allocs[1], "NasNet-A")
	if allocs[0] != allocs[1] {
		t.Errorf("a fork allocates %.0f objects over SqueezeNet's table and %.0f over NasNet-A's: it copies the table", allocs[0], allocs[1])
	}
}

// TestForkStoresIntoItsOwnTable: parent and forks read one slice, so a fork
// that lowers what the parent never saw — nodes past the table's end, and
// another graph's nodes under IDs the table holds — must clone before it
// stores. The parent and a sibling measure from the shared slice the whole
// time (the race detector sees a write into it) and find it as it was.
func TestForkStoresIntoItsOwnTable(t *testing.T) {
	g, other := models.InceptionV3(1), models.SqueezeNet(1)
	nodes := g.SchedulableNodes()
	seq, err := baseline.Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(gpusim.TeslaV100).MeasureSchedule(seq)
	if err != nil {
		t.Fatal(err)
	}

	p := New(gpusim.TeslaV100)
	p.Prelower(nodes[:len(nodes)/2])
	shared := slices.Clone(p.table)
	writer, sibling := p.Fork(), p.Fork()

	var wg sync.WaitGroup
	read := func(who string, prof *Profiler, half []*graph.Node) {
		defer wg.Done()
		for round := 0; round < 20; round++ {
			for _, n := range half {
				if got, want := prof.SoloDuration(n), shared[n.ID].solo; got != want {
					t.Errorf("%s: %s timed at %g, prelowered at %g", who, n.Name, got, want)
					return
				}
			}
		}
	}
	wg.Add(3)
	go read("parent", p, nodes[:len(nodes)/2])
	go read("sibling", sibling, nodes[:len(nodes)/2])
	go func() {
		defer wg.Done()
		writer.Prelower(other.SchedulableNodes()) // the same IDs, other nodes
		if got, err := writer.MeasureSchedule(seq); err != nil || got != want {
			t.Errorf("writer measures the sequential schedule at %g (%v), a fresh profiler at %g", got, err, want)
		}
	}()
	wg.Wait()

	for who, prof := range map[string]*Profiler{"parent": p, "sibling": sibling} {
		if !slices.Equal(prof.table, shared) {
			t.Errorf("%s's table changed under a fork's stores", who)
		}
	}
	if len(writer.table) <= len(shared) || &writer.table[0] == &p.table[0] {
		t.Errorf("the writer holds %d entries in the parent's slice (%v), want a longer table of its own",
			len(writer.table), &writer.table[0] == &p.table[0])
	}
	// What the parent lowers from here on is its own business too.
	p.Prelower(nodes)
	if !slices.Equal(sibling.table, shared) {
		t.Error("sibling's table changed under its parent's stores")
	}
	if got, err := p.MeasureSchedule(seq); err != nil || got != want {
		t.Errorf("parent measures the sequential schedule at %g (%v), a fresh profiler at %g", got, err, want)
	}
}

// TestSetMeasureCacheDropsTheTable: a lowering carries its kernels' ids in
// one cache's dictionary, so attaching another cache must forget it. The
// second cache has numbered other kernels first; a stale lowering would key
// the stage under the first cache's ids.
func TestSetMeasureCacheDropsTheTable(t *testing.T) {
	g := models.SqueezeNet(1)
	seq, err := baseline.Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	first, second := measure.NewCache(), measure.NewCache()
	filler := New(gpusim.TeslaV100)
	filler.SetMeasureCache(second)
	filler.Prelower(models.InceptionV3(1).SchedulableNodes())

	p := New(gpusim.TeslaV100)
	p.SetMeasureCache(first)
	p.Prelower(g.SchedulableNodes())
	if len(p.table) == 0 {
		t.Fatal("prelowering left no table")
	}
	f := p.Fork()
	p.SetMeasureCache(second)
	if p.table != nil {
		t.Fatalf("attaching another cache kept %d lowerings made under the first one's ids", len(p.table))
	}
	if len(f.table) == 0 || f.mcache != first {
		t.Error("attaching another cache to the parent reached into its fork")
	}
	for i, st := range seq.Stages {
		fp, err := p.stageFingerprint(st)
		if err != nil {
			t.Fatal(err)
		}
		key := p.stageKey(canonicalStage(st), nil)
		if want, ok := second.Intern(nil, fp); !ok || string(key) != string(want) {
			t.Fatalf("stage %d keyed %x under the second cache, which translates its fingerprint to %x (%v)", i, key, want, ok)
		}
	}
	p.SetMeasureCache(second) // the same cache: nothing to forget
	if len(p.table) == 0 {
		t.Error("re-attaching the attached cache dropped the table")
	}
}

// TestLoweringNamesItsNode: two graphs number their nodes alike, so a slot
// answers only for the node it was made from — a profiler taken from one
// graph to another and back measures each as a fresh profiler does, and
// with a measurement cache attached pays no backend run for the return.
func TestLoweringNamesItsNode(t *testing.T) {
	graphs := []*graph.Graph{models.SqueezeNet(1), models.InceptionV3(1), models.SqueezeNet(1)}
	p := New(gpusim.TeslaV100)
	p.SetMeasureCache(measure.NewCache())
	for i, g := range graphs {
		seq, err := baseline.Sequential(g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(gpusim.TeslaV100).MeasureSchedule(seq)
		if err != nil {
			t.Fatal(err)
		}
		before := p.Measurements
		p.Prelower(g.SchedulableNodes())
		got, err := p.MeasureSchedule(seq)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("graph %d (%s): a reused profiler measures %g, a fresh one %g", i, g.Name, got, want)
		}
		if i == 2 && p.Measurements != before {
			t.Errorf("back on SqueezeNet the profiler ran the backend %d times; the attached cache holds every kernel sequence", p.Measurements-before)
		}
	}
}
