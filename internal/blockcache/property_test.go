// Property tests for the block fingerprint: random isomorphic DAGs must
// fingerprint identically and rebind to bit-identical schedules, while
// structural perturbations — including ones only visible through boundary
// nodes — must change the fingerprint. External test package so the
// oracle searches can use internal/core (which imports blockcache).
package blockcache_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// opSpec is one operator of a generated branch.
type opSpec struct {
	kind   string // "conv", "sepconv", "pool"
	out    int    // conv/sepconv output channels
	kernel int
}

// cellSpec describes a random multi-branch cell: a schedulable stem conv
// feeding parallel branches joined by a concat. The stem keeps the cell a
// single auto-partitioned block (stem→branch edges prevent intermediate
// single-producer cuts), mirroring how Inception-style blocks hold
// together.
type cellSpec struct {
	stemOut  int
	branches [][]opSpec
	// dup marks branches[1] as a verbatim copy of branches[0], enabling
	// the op-order permutation variant (swapping identical branches is a
	// DAG isomorphism).
	dup bool
}

// randSpec draws a random cell: 2-4 branches of 1-3 operators each.
func randSpec(rng *rand.Rand) cellSpec {
	s := cellSpec{stemOut: 8 * (1 + rng.Intn(2))}
	n := 2 + rng.Intn(3)
	randBranch := func() []opSpec {
		var b []opSpec
		for i, k := 0, 1+rng.Intn(3); i < k; i++ {
			switch rng.Intn(4) {
			case 0:
				b = append(b, opSpec{kind: "pool", kernel: 3})
			case 1:
				b = append(b, opSpec{kind: "sepconv", out: 8 * (1 + rng.Intn(3)), kernel: 3})
			default:
				b = append(b, opSpec{kind: "conv", out: 8 * (1 + rng.Intn(3)), kernel: 1 + 2*rng.Intn(2)})
			}
		}
		return b
	}
	for i := 0; i < n; i++ {
		s.branches = append(s.branches, randBranch())
	}
	if rng.Intn(2) == 0 {
		s.branches[1] = s.branches[0]
		s.dup = true
	}
	return s
}

// buildVariant materializes a spec as a graph. prefix varies node names;
// pad prepends an unrelated two-conv block (shifting every cell node's
// ID and forcing manual-cut partitioning, with cuts that reproduce the
// automatic ones so the cell block holds the same operator set); swapDup
// builds branches 0 and 1 in swapped order AND swaps their concat
// positions — for a spec with dup branches this is a node-identity
// permutation of the same DAG.
func buildVariant(spec cellSpec, prefix string, pad, swapDup bool) *graph.Graph {
	g := graph.New("cell-" + prefix)
	in := g.Input(prefix+"in", graph.Shape{N: 1, C: 8, H: 16, W: 16})
	if pad {
		p1 := g.Conv(prefix+"pad1", in, graph.ConvOpts{Out: 4, Kernel: 3})
		g.Conv(prefix+"pad2", p1, graph.ConvOpts{Out: 4, Kernel: 1})
		g.CutBlock()
	}
	stem := g.Conv(prefix+"stem", in, graph.ConvOpts{Out: spec.stemOut, Kernel: 1})
	if pad {
		// The automatic partitioner cuts after the stem (it is the sole
		// producer crossing the boundary); manual cuts must mirror that
		// for the cell blocks to be comparable.
		g.CutBlock()
	}
	order := make([]int, len(spec.branches))
	for i := range order {
		order[i] = i
	}
	if swapDup {
		order[0], order[1] = order[1], order[0]
	}
	ends := make([]*graph.Node, len(spec.branches))
	for _, bi := range order {
		cur := stem
		for oi, op := range spec.branches[bi] {
			name := fmt.Sprintf("%sb%d_%d", prefix, bi, oi)
			switch op.kind {
			case "pool":
				cur = g.Pool(name, cur, graph.PoolOpts{Kernel: op.kernel, Stride: 1})
			case "sepconv":
				cur = g.SepConv(name, cur, graph.ConvOpts{Out: op.out, Kernel: op.kernel})
			default:
				cur = g.Conv(name, cur, graph.ConvOpts{Out: op.out, Kernel: op.kernel})
			}
		}
		ends[bi] = cur
	}
	concat := ends
	if swapDup {
		concat = append([]*graph.Node(nil), ends...)
		concat[0], concat[1] = concat[1], concat[0]
	}
	g.Concat(prefix+"join", concat...)
	return g
}

// cellBlock partitions the graph and returns its last block — the cell
// (padding, when present, lands in the earlier block).
func cellBlock(t *testing.T, g *graph.Graph) *graph.Block {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: generated graph invalid: %v", g.Name, err)
	}
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatalf("%s: partition: %v", g.Name, err)
	}
	return blocks[len(blocks)-1]
}

func fingerprintOf(b *graph.Block) []byte {
	return blockcache.Fingerprint(b, profile.New(gpusim.TeslaV100), core.Options{}.Fingerprint())
}

// searchCanonical runs the block DP and returns the schedule in canonical
// (node-ID-free) form plus its search statistics.
func searchCanonical(t *testing.T, b *graph.Block) ([]blockcache.Stage, core.Stats) {
	t.Helper()
	stages, stats, err := core.OptimizeBlockContext(context.Background(), b, profile.New(gpusim.TeslaV100), core.Options{})
	if err != nil {
		t.Fatalf("block search: %v", err)
	}
	canon, err := blockcache.Canonicalize(b, stages)
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	return canon, stats
}

// TestFingerprintIsomorphismProperty is the positive property: for random
// cells, every DAG-isomorphic variant — renamed nodes, shifted node IDs
// (an unrelated block prepended under manual cuts), permuted insertion
// order of identical branches — fingerprints identically, and the cached
// schedule of one variant rebinds onto any other bit-identically to what
// that variant's own search would produce (same canonical stages, same
// search statistics).
func TestFingerprintIsomorphismProperty(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := randSpec(rand.New(rand.NewSource(int64(seed))))
			base := cellBlock(t, buildVariant(spec, "a", false, false))
			variants := map[string]*graph.Block{
				"renamed":    cellBlock(t, buildVariant(spec, "zz_", false, false)),
				"id-shifted": cellBlock(t, buildVariant(spec, "b", true, false)),
			}
			if spec.dup {
				variants["dup-swapped"] = cellBlock(t, buildVariant(spec, "c", false, true))
			}
			baseFP := fingerprintOf(base)
			baseCanon, baseStats := searchCanonical(t, base)
			entry := &blockcache.Entry{Ops: len(base.Nodes), Stages: baseCanon,
				States: baseStats.States, Transitions: baseStats.Transitions}
			for name, vb := range variants {
				if !bytes.Equal(baseFP, fingerprintOf(vb)) {
					t.Fatalf("%s variant fingerprints differently from its isomorphic base", name)
				}
				rebound, err := blockcache.Rebind(vb, entry)
				if err != nil {
					t.Fatalf("%s: rebind: %v", name, err)
				}
				reboundCanon, err := blockcache.Canonicalize(vb, rebound)
				if err != nil {
					t.Fatalf("%s: canonicalize rebound: %v", name, err)
				}
				directCanon, directStats := searchCanonical(t, vb)
				if !reflect.DeepEqual(reboundCanon, directCanon) {
					t.Fatalf("%s: rebound schedule differs from the variant's own search:\n%v\nvs\n%v",
						name, reboundCanon, directCanon)
				}
				if directStats.States != baseStats.States || directStats.Transitions != baseStats.Transitions {
					t.Fatalf("%s: search statistics differ across isomorphic variants: %d/%d vs %d/%d",
						name, directStats.States, directStats.Transitions, baseStats.States, baseStats.Transitions)
				}
			}
		})
	}
}

// TestFingerprintDistinguishesStructure is the negative property: every
// structural perturbation of a cell — operator hyperparameters, topology,
// device model, search options — yields a distinct fingerprint.
func TestFingerprintDistinguishesStructure(t *testing.T) {
	spec := randSpec(rand.New(rand.NewSource(42)))
	prof := func() *profile.Profiler { return profile.New(gpusim.TeslaV100) }
	optsFP := core.Options{}.Fingerprint()

	fps := map[string]string{}
	record := func(name string, fp []byte) {
		t.Helper()
		for prev, prevFP := range fps {
			if prevFP == string(fp) {
				t.Errorf("%q and %q collide despite distinct structure", name, prev)
			}
		}
		fps[name] = string(fp)
	}

	record("base", blockcache.Fingerprint(cellBlock(t, buildVariant(spec, "a", false, false)), prof(), optsFP))

	perturb := func(name string, fn func(*cellSpec)) {
		s := spec
		s.branches = make([][]opSpec, len(spec.branches))
		for i := range spec.branches {
			s.branches[i] = append([]opSpec(nil), spec.branches[i]...)
		}
		fn(&s)
		record(name, blockcache.Fingerprint(cellBlock(t, buildVariant(s, "a", false, false)), prof(), optsFP))
	}
	perturb("wider stem", func(s *cellSpec) { s.stemOut += 8 })
	perturb("wider branch op", func(s *cellSpec) {
		for i, op := range s.branches[0] {
			if op.kind != "pool" {
				s.branches[0][i].out += 8
				return
			}
		}
		s.branches[0][0] = opSpec{kind: "conv", out: 48, kernel: 1}
	})
	perturb("extra op", func(s *cellSpec) {
		s.branches[0] = append(s.branches[0], opSpec{kind: "conv", out: 8, kernel: 1})
	})
	perturb("extra branch", func(s *cellSpec) {
		s.branches = append(s.branches, []opSpec{{kind: "conv", out: 16, kernel: 3}})
	})
	perturb("kind change", func(s *cellSpec) {
		s.branches[len(s.branches)-1][0] = opSpec{kind: "pool", kernel: 3}
		s.branches[0][0] = opSpec{kind: "conv", out: 24, kernel: 3}
	})

	// Same structure, different measurement context or search options.
	baseBlock := cellBlock(t, buildVariant(spec, "a", false, false))
	record("device K80", blockcache.Fingerprint(baseBlock, profile.New(gpusim.TeslaK80), optsFP))
	record("extra overhead", blockcache.Fingerprint(baseBlock,
		profile.NewWithOptions(gpusim.TeslaV100, profile.Options{ExtraLaunchOverhead: 1e-6}), optsFP))
	record("merge-only options", blockcache.Fingerprint(baseBlock, prof(),
		core.Options{Strategies: core.MergeOnly}.Fingerprint()))
	record("tighter pruning", blockcache.Fingerprint(baseBlock, prof(),
		core.Options{Pruning: core.Pruning{R: 2, S: 4}}.Fingerprint()))
}

// TestFingerprintBoundaryIdentity pins the subtle cases the paper's merge
// strategy forces the key to cover: node references that leave the block.
func TestFingerprintBoundaryIdentity(t *testing.T) {
	shape := graph.Shape{N: 1, C: 8, H: 16, W: 16}
	fp := func(g *graph.Graph, idx int) string {
		blocks, err := g.Partition(0)
		if err != nil {
			t.Fatal(err)
		}
		if idx < 0 {
			idx = len(blocks) - 1
		}
		return string(fingerprintOf(blocks[idx]))
	}

	// Two convs reading ONE shared external producer vs. two reading two
	// distinct identically-shaped producers: merge eligibility (CanMerge's
	// shared-input rule) differs, so the fingerprints must too. The
	// producers sit in earlier blocks, so inside the measured block the
	// two cases differ only in boundary-node identity.
	shared := graph.New("shared")
	{
		in := shared.Input("x", shape)
		s := shared.Conv("s", in, graph.ConvOpts{Out: 8, Kernel: 1})
		a := shared.Conv("a", s, graph.ConvOpts{Out: 8, Kernel: 3})
		b := shared.Conv("b", s, graph.ConvOpts{Out: 8, Kernel: 3})
		shared.Concat("j", a, b)
	}
	distinct := graph.New("distinct")
	{
		in := distinct.Input("x", shape)
		s1 := distinct.Conv("s1", in, graph.ConvOpts{Out: 8, Kernel: 1})
		s2 := distinct.Conv("s2", in, graph.ConvOpts{Out: 8, Kernel: 1})
		a := distinct.Conv("a", s1, graph.ConvOpts{Out: 8, Kernel: 3})
		b := distinct.Conv("b", s2, graph.ConvOpts{Out: 8, Kernel: 3})
		distinct.Concat("j", a, b)
	}
	if fp(shared, -1) == fp(distinct, -1) {
		t.Error("shared vs distinct external inputs fingerprint identically (merge eligibility differs)")
	}

	// Identical block internals, but the boundary CONSUMER differs: under
	// a manual cut the joining concat lives in the next block, and its
	// input order decides the merge strategy's split-is-free test.
	consumer := func(name string, swap bool) *graph.Graph {
		g := graph.New(name)
		in := g.Input("x", shape)
		a := g.Conv("a", in, graph.ConvOpts{Out: 8, Kernel: 3})
		b := g.Conv("b", in, graph.ConvOpts{Out: 8, Kernel: 1})
		g.CutBlock()
		if swap {
			g.Concat("j", b, a)
		} else {
			g.Concat("j", a, b)
		}
		g.Conv("tail", g.NodeByName("j"), graph.ConvOpts{Out: 8, Kernel: 1})
		return g
	}
	if fp(consumer("ab", false), 0) == fp(consumer("ba", true), 0) {
		t.Error("boundary concat input order is invisible to the fingerprint (split-is-free test differs)")
	}

	// A conv whose sole consumer is a boundary concat vs. one whose sole
	// consumer is a boundary add: split-is-free differs, so must the keys.
	joinKind := func(name string, add bool) *graph.Graph {
		g := graph.New(name)
		in := g.Input("x", shape)
		a := g.Conv("a", in, graph.ConvOpts{Out: 8, Kernel: 3})
		b := g.Conv("b", in, graph.ConvOpts{Out: 8, Kernel: 3})
		g.CutBlock()
		if add {
			g.Add("j", a, b)
		} else {
			g.Concat("j", a, b)
		}
		g.Conv("tail", g.NodeByName("j"), graph.ConvOpts{Out: 8, Kernel: 1})
		return g
	}
	if fp(joinKind("via-concat", false), 0) == fp(joinKind("via-add", true), 0) {
		t.Error("boundary consumer kind (concat vs add) is invisible to the fingerprint")
	}
}

// TestFingerprintCollisionSweepZoo sweeps every block of the model zoo:
// blocks whose fingerprints coincide must agree on cheap structural
// invariants, and a searched representative pair per coinciding group
// must produce identical canonical schedules. Meanwhile repetition must
// actually exist — the cache's reason to be.
func TestFingerprintCollisionSweepZoo(t *testing.T) {
	builders := []models.Builder{models.Figure2Block, models.InceptionE, models.SqueezeNet, models.InceptionV3}
	if !testing.Short() {
		builders = append(builders, models.NasNetA)
	}
	type site struct {
		model string
		b     *graph.Block
	}
	groups := map[string][]site{}
	total := 0
	for _, build := range builders {
		g := build(1)
		blocks, err := g.Partition(0)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for _, b := range blocks {
			fp := string(fingerprintOf(b))
			groups[fp] = append(groups[fp], site{g.Name, b})
			total++
		}
	}
	if len(groups) >= total {
		t.Errorf("no repeated block structures across the zoo (%d blocks, %d fingerprints) — dedup impossible", total, len(groups))
	}
	verified := 0
	for _, sites := range groups {
		if len(sites) < 2 {
			continue
		}
		first := sites[0]
		for _, s := range sites[1:] {
			if len(s.b.Nodes) != len(first.b.Nodes) {
				t.Fatalf("fingerprint collision across different op counts: %s block %d (%d ops) vs %s block %d (%d ops)",
					first.model, first.b.Index, len(first.b.Nodes), s.model, s.b.Index, len(s.b.Nodes))
			}
			for i, n := range s.b.Nodes {
				m := first.b.Nodes[i]
				if n.Op != m.Op || n.Output != m.Output {
					t.Fatalf("fingerprint collision across different operators: %s block %d op %d %v vs %s block %d op %d %v",
						first.model, first.b.Index, i, m.Op, s.model, s.b.Index, i, n.Op)
				}
			}
		}
		// Searching every duplicate would re-run most of the zoo; three
		// verified groups pin the equal-fingerprint ⇒ equal-schedule
		// property on real networks (the random sweep above covers breadth).
		if verified < 3 && len(first.b.Nodes) <= 16 {
			c0, st0 := searchCanonical(t, first.b)
			c1, st1 := searchCanonical(t, sites[1].b)
			if !reflect.DeepEqual(c0, c1) || st0.States != st1.States || st0.Transitions != st1.Transitions {
				t.Fatalf("equal fingerprints, different searches: %s block %d vs %s block %d",
					first.model, first.b.Index, sites[1].model, sites[1].b.Index)
			}
			verified++
		}
	}
	if verified == 0 {
		t.Error("no coinciding group was search-verified")
	}
	t.Logf("zoo sweep: %d blocks, %d distinct structures, %d search-verified groups", total, len(groups), verified)
}

// TestFingerprintWhateverTheProfilerHolds: the fingerprint reads each
// operator's kernels from the lowering table of the profiler it is handed,
// and what that table held beforehand must not show — a fresh profiler, one
// that prelowered the graph with a measurement cache attached, a fork of
// that one, and one that last worked on another graph under the same node
// IDs all give the same bytes for every block.
func TestFingerprintWhateverTheProfilerHolds(t *testing.T) {
	optsFP := core.Options{}.Fingerprint()
	for _, g := range []*graph.Graph{models.InceptionV3(1), models.NasNetA(1)} {
		blocks, err := g.Partition(0)
		if err != nil {
			t.Fatal(err)
		}
		prelowered := profile.New(gpusim.TeslaV100)
		prelowered.SetMeasureCache(measure.NewCache())
		prelowered.Prelower(g.SchedulableNodes())
		foreign := profile.New(gpusim.TeslaV100)
		foreign.Prelower(models.RandWire(1).SchedulableNodes())
		profs := map[string]*profile.Profiler{"prelowered": prelowered, "forked": prelowered.Fork(), "foreign": foreign}
		for _, b := range blocks {
			want := blockcache.Fingerprint(b, profile.New(gpusim.TeslaV100), optsFP)
			for name, prof := range profs {
				before := prof.Measurements
				if got := blockcache.Fingerprint(b, prof, optsFP); !bytes.Equal(got, want) {
					t.Fatalf("%s block %d: the %s profiler fingerprints it differently from a fresh one", g.Name, b.Index, name)
				}
				if prof.Measurements != before {
					t.Fatalf("%s block %d: fingerprinting on the %s profiler ran %d measurements", g.Name, b.Index, name, prof.Measurements-before)
				}
			}
		}
	}
}

// TestRebindRejectsMismatch: a cached entry must never rebind onto a
// block it does not cover — corrupted shared state degrades to a
// re-search, not a malformed schedule.
func TestRebindRejectsMismatch(t *testing.T) {
	spec := randSpec(rand.New(rand.NewSource(7)))
	b := cellBlock(t, buildVariant(spec, "a", false, false))
	canon, stats := searchCanonical(t, b)
	good := &blockcache.Entry{Ops: len(b.Nodes), Stages: canon, States: stats.States, Transitions: stats.Transitions}
	if _, err := blockcache.Rebind(b, good); err != nil {
		t.Fatalf("valid entry failed to rebind: %v", err)
	}
	bad := []*blockcache.Entry{
		{Ops: len(b.Nodes) + 1, Stages: canon},
		{Ops: len(b.Nodes), Stages: canon[:len(canon)-1]},
		{Ops: len(b.Nodes), Stages: append(append([]blockcache.Stage(nil), canon...),
			blockcache.Stage{Strategy: schedule.Concurrent, Groups: [][]int{{0}}})},
		{Ops: len(b.Nodes), Stages: []blockcache.Stage{{Strategy: schedule.Concurrent, Groups: [][]int{{len(b.Nodes)}}}}},
	}
	for i, e := range bad {
		if _, err := blockcache.Rebind(b, e); err == nil {
			t.Errorf("bad entry %d rebound without error", i)
		}
	}
}
