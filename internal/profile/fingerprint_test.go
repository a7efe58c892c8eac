package profile

import (
	"math/rand"
	"testing"

	"ios/internal/baseline"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/schedule"
)

// randomDAG builds a random layered CNN graph: each layer's nodes draw
// inputs from earlier layers, with occasional same-shape adds and
// identities (free ops), so the generated stages cover multi-kernel,
// multi-input, and kernel-free nodes.
func randomDAG(rng *rand.Rand) *graph.Graph {
	g := graph.New("random")
	in := g.Input("in", graph.Shape{N: 1, C: 4 + 4*rng.Intn(3), H: 8, W: 8})
	prev := []*graph.Node{in}
	layers := 2 + rng.Intn(3)
	id := 0
	for l := 0; l < layers; l++ {
		width := 1 + rng.Intn(3)
		var cur []*graph.Node
		for i := 0; i < width; i++ {
			id++
			name := "n" + string(rune('a'+id%26)) + string(rune('0'+id/26))
			src := prev[rng.Intn(len(prev))]
			switch rng.Intn(5) {
			case 0:
				cur = append(cur, g.Identity(name, src))
			case 1:
				cur = append(cur, g.SepConv(name, src, graph.ConvOpts{Out: 8, Kernel: 3}))
			default:
				cur = append(cur, g.Conv(name, src, graph.ConvOpts{Out: 4 + 4*rng.Intn(2), Kernel: 1 + 2*rng.Intn(2)}))
			}
		}
		prev = cur
	}
	return g
}

// randomStage draws a random concurrent stage over a random subset of the
// graph's schedulable nodes, partitioned into random groups. Measurement
// does not require the stage to be a valid schedule step, so arbitrary
// subsets exercise the fingerprint harder than real schedules do.
func randomStage(rng *rand.Rand, nodes []*graph.Node) schedule.Stage {
	var picked []*graph.Node
	for _, n := range nodes {
		if rng.Float64() < 0.5 {
			picked = append(picked, n)
		}
	}
	if len(picked) == 0 {
		picked = nodes[:1]
	}
	ngroups := 1 + rng.Intn(3)
	groups := make([][]*graph.Node, ngroups)
	for _, n := range picked {
		gi := rng.Intn(ngroups)
		groups[gi] = append(groups[gi], n)
	}
	var nonEmpty [][]*graph.Node
	for _, grp := range groups {
		if len(grp) > 0 {
			nonEmpty = append(nonEmpty, grp)
		}
	}
	return schedule.Stage{Strategy: schedule.Concurrent, Groups: nonEmpty}
}

// TestFingerprintSoundnessRandomDAGs is the property the whole cache
// rests on: any two stages with equal fingerprints have bit-identical
// MeasureStage latencies — across different random graphs, node
// identities, and group orders.
func TestFingerprintSoundnessRandomDAGs(t *testing.T) {
	seen := map[string]float64{}  // fingerprint -> uncached latency
	origin := map[string]string{} // fingerprint -> first stage, for diagnostics
	stages, collisionsChecked := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		prof := New(gpusim.TeslaV100) // no cache: soundness is about raw latencies
		for i := 0; i < 40; i++ {
			st := randomStage(rng, g.SchedulableNodes())
			fp, err := prof.StageFingerprint(st)
			if err != nil {
				t.Fatal(err)
			}
			lat, err := prof.MeasureStage(st)
			if err != nil {
				t.Fatal(err)
			}
			stages++
			if prev, ok := seen[string(fp)]; ok {
				collisionsChecked++
				if prev != lat {
					t.Fatalf("seed %d stage %d: equal fingerprints, different latencies %g vs %g\nstage: %v\nfirst: %s",
						seed, i, lat, prev, st, origin[string(fp)])
				}
			} else {
				seen[string(fp)] = lat
				origin[string(fp)] = st.String()
			}
		}
	}
	if collisionsChecked == 0 {
		t.Fatal("property vacuous: no two random stages ever shared a fingerprint")
	}
	t.Logf("%d stages, %d distinct fingerprints, %d equal-fingerprint pairs verified",
		stages, len(seen), collisionsChecked)
}

// TestFingerprintCollisionResistanceZoo sweeps every model in the zoo:
// all stages of the sequential and greedy baseline schedules are
// fingerprinted and measured uncached, and equal fingerprints must always
// carry equal latencies — a collision that mapped two different stage
// structures to one key would surface here as a latency mismatch.
func TestFingerprintCollisionResistanceZoo(t *testing.T) {
	seen := map[string]float64{}
	stages := 0
	for _, entry := range models.Zoo() {
		g := entry.Build(1)
		prof := New(gpusim.TeslaV100)
		for _, mk := range []func(*graph.Graph) (*schedule.Schedule, error){baseline.Sequential, baseline.Greedy} {
			s, err := mk(g)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			for _, st := range s.Stages {
				fp, err := prof.StageFingerprint(st)
				if err != nil {
					t.Fatal(err)
				}
				lat, err := prof.MeasureStage(st)
				if err != nil {
					t.Fatal(err)
				}
				stages++
				if prev, ok := seen[string(fp)]; ok {
					if prev != lat {
						t.Fatalf("%s: fingerprint collision with different latencies (%g vs %g) on stage %v",
							g.Name, lat, prev, st)
					}
				} else {
					seen[string(fp)] = lat
				}
			}
		}
	}
	if len(seen) >= stages {
		t.Fatalf("no structural sharing across the zoo (%d stages, %d fingerprints) — the dedup the cache exists for", stages, len(seen))
	}
	t.Logf("zoo sweep: %d stages collapse to %d distinct fingerprints", stages, len(seen))
}

// TestMeasureCacheSharedAcrossForks: forks inherit the parent's cache, so
// a structurally identical stage measured on a fork is a hit even when
// its nodes differ.
func TestMeasureCacheSharedAcrossForks(t *testing.T) {
	g1, g2 := models.Figure2Block(1), models.Figure2Block(1)
	st := func(g *graph.Graph) schedule.Stage {
		var a, d *graph.Node
		for _, n := range g.Nodes {
			switch n.Name {
			case "a":
				a = n
			case "d":
				d = n
			}
		}
		return schedule.Stage{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{a}, {d}}}
	}
	cache := measure.NewCache()
	p := New(gpusim.TeslaV100)
	p.SetMeasureCache(cache)
	if p.MeasureCache() != cache {
		t.Fatal("MeasureCache accessor lost the cache")
	}
	l1, err := p.MeasureStage(st(g1))
	if err != nil {
		t.Fatal(err)
	}
	f := p.Fork()
	if f.MeasureCache() != cache {
		t.Fatal("fork dropped the measurement cache")
	}
	l2, err := f.MeasureStage(st(g2)) // different node values, same structure
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatalf("structurally identical stages measured %g vs %g", l1, l2)
	}
	if f.Measurements != 0 {
		t.Fatalf("fork re-simulated a cached fingerprint (%d measurements)", f.Measurements)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("no cache hit recorded: %+v", st)
	}
}

// TestMeasureStageUsesSharedCache: stage measurements feed the shared
// cache, and a second profiler reuses its entries.
func TestMeasureStageUsesSharedCache(t *testing.T) {
	g := models.SqueezeNet(1)
	s, err := baseline.Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	cache := measure.NewCache()
	p1 := New(gpusim.TeslaV100)
	p1.SetMeasureCache(cache)
	l1, err := p1.MeasureSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	p2 := New(gpusim.TeslaV100)
	p2.SetMeasureCache(cache)
	l2, err := p2.MeasureSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatalf("shared-cache schedule latency %g != %g", l1, l2)
	}
	if p2.Measurements != 0 {
		t.Fatalf("second profiler re-simulated %d stages despite the shared cache", p2.Measurements)
	}
}
