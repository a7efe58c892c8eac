package profile

import (
	"math/rand"
	"slices"
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
			fp, err := prof.stageFingerprint(st)
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
				fp, err := prof.stageFingerprint(st)
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
	if p.mcache != cache {
		t.Fatal("SetMeasureCache lost the cache")
	}
	l1, err := p.MeasureStage(st(g1))
	if err != nil {
		t.Fatal(err)
	}
	f := p.Fork()
	if f.mcache != cache {
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

// keyChecker asserts, stage by stage, that the id key a profiler caches a
// stage under (stageKey) and the stage's long-form stageFingerprint name
// each other: two stages get equal id keys if and only if their
// fingerprints are equal, and the key is the one the cache itself derives
// from the fingerprint (measure.Cache.Intern), so the profiler's assembly
// from pre-encoded ids and the reference translation agree byte for byte.
type keyChecker struct {
	t       *testing.T
	cache   *measure.Cache
	fpOf    map[string]string // id key -> fingerprint
	keyOf   map[string]string // fingerprint -> id key
	shared  int               // stages whose key an earlier stage already had
	unkeyed int               // stages with no kernels: never cached, no key
}

func newKeyChecker(t *testing.T) *keyChecker {
	return &keyChecker{t: t, cache: measure.NewCache(), fpOf: map[string]string{}, keyOf: map[string]string{}}
}

func (kc *keyChecker) check(p *Profiler, st schedule.Stage) {
	kc.t.Helper()
	fp, err := p.stageFingerprint(st)
	if err != nil {
		kc.t.Fatal(err)
	}
	fused, err := p.fused(st)
	if err != nil {
		kc.t.Fatal(err)
	}
	key := p.stageKey(canonicalStage(st), fused)
	if key == nil {
		if empty := measure.AppendStreams(measure.Context(p.Spec(), 0), nil); string(fp) != string(empty) {
			kc.t.Fatalf("stage %v has kernels (fingerprint %x) and no key", st, fp)
		}
		kc.unkeyed++
		return
	}
	if want, ok := kc.cache.Intern(nil, fp); !ok || string(key) != string(want) {
		kc.t.Fatalf("stage %v: profiler key %x, the cache translates its fingerprint to %x (%v)", st, key, want, ok)
	}
	if prev, ok := kc.fpOf[string(key)]; ok {
		kc.shared++
		if prev != string(fp) {
			kc.t.Fatalf("stage %v: id key %x names two fingerprints\n%x\n%x", st, key, prev, fp)
		}
	}
	if prev, ok := kc.keyOf[string(fp)]; ok && prev != string(key) {
		kc.t.Fatalf("stage %v: fingerprint %x has two id keys, %x and %x", st, fp, prev, key)
	}
	kc.fpOf[string(key)], kc.keyOf[string(fp)] = string(fp), string(key)
}

// TestIDKeysMatchFingerprintsRandomDAGs runs the soundness generator
// against one shared cache: every random stage of every random graph,
// keyed on a profiler or on a fork of it, gets the id key its fingerprint
// translates to, and no two fingerprints ever share one.
func TestIDKeysMatchFingerprintsRandomDAGs(t *testing.T) {
	kc := newKeyChecker(t)
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		prof := New(gpusim.TeslaV100)
		prof.SetMeasureCache(kc.cache)
		var fork *Profiler
		for i := 0; i < 40; i++ {
			if i == 20 {
				fork = prof.Fork() // shares the 20 stages' lowerings and ids
			}
			p := prof
			if fork != nil && i%2 == 1 {
				p = fork
			}
			kc.check(p, randomStage(rng, g.SchedulableNodes()))
		}
	}
	if kc.shared == 0 || len(kc.fpOf) < 100 {
		t.Fatalf("property vacuous: %d distinct keys, %d stages shared one", len(kc.fpOf), kc.shared)
	}
	t.Logf("%d distinct id keys, %d stages shared one, %d had no kernels", len(kc.fpOf), kc.shared, kc.unkeyed)
}

// TestIDKeysMatchFingerprintsZoo sweeps the collision-resistance
// generator — every stage of the sequential and greedy schedules of every
// zoo model, all under one cache — and Figure 2's merge stages, whose
// fused kernels are interned at the call.
func TestIDKeysMatchFingerprintsZoo(t *testing.T) {
	kc := newKeyChecker(t)
	for _, entry := range models.Zoo() {
		g := entry.Build(1)
		prof := New(gpusim.TeslaV100)
		prof.SetMeasureCache(kc.cache)
		fork := prof.Fork()
		for i, mk := range []func(*graph.Graph) (*schedule.Schedule, error){baseline.Sequential, baseline.Greedy} {
			s, err := mk(g)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			for _, st := range s.Stages {
				kc.check([]*Profiler{prof, fork}[i], st)
			}
		}
	}
	_, n := fig2Nodes(t)
	prof := New(gpusim.TeslaV100)
	prof.SetMeasureCache(kc.cache)
	for _, ops := range [][]string{{"a", "c"}, {"a", "d"}, {"c", "d"}, {"a", "c", "d"}, {"c", "a"}} {
		st := schedule.Stage{Strategy: schedule.Merge}
		for _, name := range ops {
			st.Groups = append(st.Groups, []*graph.Node{n[name]})
		}
		kc.check(prof, st)
		kc.check(prof.Fork(), st)
	}
	if kc.shared == 0 {
		t.Fatal("no structural sharing across the zoo")
	}
	t.Logf("%d distinct id keys, %d stages shared one, %d had no kernels", len(kc.fpOf), kc.shared, kc.unkeyed)
}

// TestFullDictionaryMeasuresUncached: a bounded cache bounds its
// dictionary, and a stage that needs a signature the full dictionary
// cannot take is measured without the cache — the same bits, one backend
// run each time — while stages over signatures it holds still hit.
func TestFullDictionaryMeasuresUncached(t *testing.T) {
	g := models.SqueezeNet(1)
	s, err := baseline.Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	bare := New(gpusim.TeslaV100)
	var want []float64
	for _, st := range s.Stages {
		lat, err := bare.MeasureStage(st)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, lat)
	}
	const room = 3 // signatures; SqueezeNet has dozens
	cache := measure.NewCacheSize(room)
	for round := 0; round < 2; round++ {
		p := New(gpusim.TeslaV100)
		p.SetMeasureCache(cache)
		for i, st := range s.Stages {
			lat, err := p.MeasureStage(st)
			if err != nil {
				t.Fatal(err)
			}
			if lat != want[i] {
				t.Fatalf("round %d stage %d measured %v, uncached %v", round, i, lat, want[i])
			}
		}
		st := cache.Stats()
		t.Logf("round %d: %d backend runs of %d stages, cache %+v", round, p.Measurements, len(s.Stages), st)
		if st.Size == 0 || st.Size > room*(room+1) {
			t.Fatalf("round %d: %d entries cached with room for %d signatures", round, st.Size, room)
		}
		if round == 1 && (st.Hits == 0 || p.Measurements == 0 || p.Measurements >= len(s.Stages)) {
			t.Fatalf("second pass: %d hits, %d backend runs of %d stages; want the keyed stages hit and the rest run", st.Hits, p.Measurements, len(s.Stages))
		}
	}
}

// stageFingerprint returns the stage's canonical measurement fingerprint
// in its long form: the device-model context plus the lowered per-stream
// kernel signatures, group order normalized. Two stages with equal
// fingerprints have bit-identical measured latencies; node identity,
// names, and graph position do not enter. The key a stage is cached under
// (stageKey) is this fingerprint with the attached cache's ids for the
// context and each signature: equal exactly when the fingerprints are.
// The returned slice is freshly allocated.
func (p *Profiler) stageFingerprint(st schedule.Stage) ([]byte, error) {
	streams, err := p.stageStreamsPooled(canonicalStage(st))
	if err != nil {
		return nil, err
	}
	return measure.AppendStreams(slices.Clone(p.Context()), streams), nil
}
