package models

import (
	"strings"
	"testing"

	"ios/internal/graph"
)

func TestBenchmarksBuildAndValidate(t *testing.T) {
	for i, b := range Benchmarks() {
		name := BenchmarkNames()[i]
		for _, batch := range []int{1, 32} {
			g := b(batch)
			if err := g.Validate(); err != nil {
				t.Errorf("%s batch %d: %v", name, batch, err)
			}
			if _, err := g.Partition(0); err != nil {
				t.Errorf("%s batch %d partition: %v", name, batch, err)
			}
		}
	}
}

func TestInceptionInventory(t *testing.T) {
	g := InceptionV3(1)
	st := g.ComputeStats()
	// Paper Table 2: 119 operators; our op granularity gives 120.
	if st.Ops < 110 || st.Ops > 130 {
		t.Errorf("Inception ops = %d, expected ~119", st.Ops)
	}
	// The input is 299x299 and the last block sees 8x8x1280.
	e1 := g.NodeByName("e1_b1_1x1")
	if e1 == nil {
		t.Fatal("missing Inception-E block")
	}
	in := e1.Inputs[0].Output
	if in.H != 8 || in.W != 8 || in.C != 1280 {
		t.Errorf("Inception-E input = %v, want 8x8x1280", in)
	}
	// Total FLOPs of Inception V3 at batch 1 is ~11.4 GFLOPs (2x the
	// usual ~5.7 GMACs).
	if st.TotalFLOPs < 9e9 || st.TotalFLOPs > 14e9 {
		t.Errorf("Inception FLOPs = %g", st.TotalFLOPs)
	}
}

func TestInceptionLargestBlockShape(t *testing.T) {
	g := InceptionE(1)
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("InceptionE blocks = %d", len(blocks))
	}
	b := blocks[0]
	if len(b.Nodes) != 11 {
		t.Errorf("InceptionE ops = %d, want 11 (Table 1)", len(b.Nodes))
	}
	if b.Width() != 6 {
		t.Errorf("InceptionE width = %d, want 6 (Table 1)", b.Width())
	}
}

func TestSqueezeNetInventory(t *testing.T) {
	g := SqueezeNet(1)
	st := g.ComputeStats()
	if st.Ops != 50 {
		t.Errorf("SqueezeNet ops = %d, want 50 (Table 2)", st.Ops)
	}
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	var maxN, maxD int
	for _, b := range blocks {
		if len(b.Nodes) > maxN {
			maxN, maxD = len(b.Nodes), b.Width()
		}
	}
	if maxN != 6 || maxD != 3 {
		t.Errorf("SqueezeNet largest block = n%d d%d, want n6 d3 (Table 1)", maxN, maxD)
	}
}

func TestRandWireInventory(t *testing.T) {
	g := RandWire(1)
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	// Table 1's RandWire row: a 33-operator stage block of width 8. The
	// three stage blocks are all 33 ops; the hardest one has width 8.
	found := false
	for _, b := range blocks {
		if len(b.Nodes) == 33 && b.Width() == 8 {
			found = true
		}
		if len(b.Nodes) > 40 {
			t.Errorf("oversized block: %d ops", len(b.Nodes))
		}
	}
	if !found {
		t.Error("no 33-op width-8 stage block (Table 1 row)")
	}
	// Determinism: same seed, same graph.
	g2 := RandWire(1)
	if len(g2.Nodes) != len(g.Nodes) {
		t.Error("RandWire generation not deterministic")
	}
	for i := range g.Nodes {
		if g.Nodes[i].Name != g2.Nodes[i].Name || len(g.Nodes[i].Inputs) != len(g2.Nodes[i].Inputs) {
			t.Fatalf("RandWire node %d differs between builds", i)
		}
	}
}

func TestRandWireOpMix(t *testing.T) {
	g := RandWire(1)
	// The stage bodies must be pure Relu-SepConv units (Table 2).
	for _, n := range g.Nodes {
		if n.Op.Kind == graph.OpConv && n.Name != "stem_conv1" && n.Name != "head_conv" {
			t.Errorf("unexpected dense conv %q in RandWire", n.Name)
		}
	}
}

func TestNasNetInventory(t *testing.T) {
	g := NasNetA(1)
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	// 13 cells + stem/head blocks.
	if len(blocks) < 13 || len(blocks) > 16 {
		t.Errorf("NasNet blocks = %d, want 13 cells(+stem/head)", len(blocks))
	}
	var maxD int
	for _, b := range blocks {
		if d := b.Width(); d > maxD {
			maxD = d
		}
	}
	if maxD != 8 {
		t.Errorf("NasNet max block width = %d, want 8 (Table 1)", maxD)
	}
}

func TestFigure2Block(t *testing.T) {
	g := Figure2Block(1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	a, b := g.NodeByName("a"), g.NodeByName("b")
	if b.Inputs[0] != a {
		t.Error("b must consume a")
	}
	cat := g.NodeByName("concat")
	if cat.Output.C != 1920 {
		t.Errorf("concat channels = %d, want 1920", cat.Output.C)
	}
	// Conv a ~0.6 GFLOPs, conv d ~1.2 GFLOPs as annotated in the figure.
	fa := graph.FLOPs(a)
	if fa < 0.5e9 || fa > 0.7e9 {
		t.Errorf("conv a FLOPs = %g, want ~0.6e9", fa)
	}
	fd := graph.FLOPs(g.NodeByName("d"))
	if fd < 1.0e9 || fd > 1.4e9 {
		t.Errorf("conv d FLOPs = %g, want ~1.2e9", fd)
	}
}

func TestResNetsAndVGG(t *testing.T) {
	for _, b := range []Builder{ResNet34, ResNet50, VGG16} {
		g := b(1)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		if _, err := g.Partition(0); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
	// Figure 1 trend: VGG's mean conv FLOPs must greatly exceed NasNet's.
	vgg := VGG16(1).ComputeStats()
	nas := NasNetA(1).ComputeStats()
	if vgg.MeanConvFLOPs < 5*nas.MeanConvFLOPs {
		t.Errorf("trend broken: VGG %g vs NasNet %g MFLOPs/conv",
			vgg.MeanConvFLOPs/1e6, nas.MeanConvFLOPs/1e6)
	}
	if vgg.Convs >= nas.Convs {
		t.Errorf("trend broken: VGG has %d convs, NasNet %d", vgg.Convs, nas.Convs)
	}
}

func TestWattsStrogatzProperties(t *testing.T) {
	g := RandWireSized(1, 16, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// All stage nodes reachable: every non-source node has inputs, and
	// the builder's topological construction guarantees acyclicity via
	// Validate above.
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 3 {
		t.Errorf("blocks = %d", len(blocks))
	}
}

func TestMobileNetsBuild(t *testing.T) {
	for _, b := range []Builder{MobileNetV2, ShuffleNet} {
		g := b(1)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		blocks, err := g.Partition(0)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if len(blocks) < 10 {
			t.Errorf("%s: only %d blocks", g.Name, len(blocks))
		}
	}
}

func TestMobileNetV2Shapes(t *testing.T) {
	g := MobileNetV2(1)
	// Final feature map before the head: 7x7x320.
	n := g.NodeByName("ir17_project")
	if n == nil {
		t.Fatal("missing final inverted residual")
	}
	if n.Output.H != 7 || n.Output.C != 320 {
		t.Errorf("final block output = %v, want 7x7x320", n.Output)
	}
}

func TestShuffleNetGroupedChannels(t *testing.T) {
	g := ShuffleNet(1)
	for _, n := range g.Nodes {
		if n.Op.Kind == graph.OpConv && n.Op.Groups > 1 {
			in := n.Inputs[0].Output
			if in.C%n.Op.Groups != 0 || n.Op.OutChannels%n.Op.Groups != 0 {
				t.Errorf("node %s: bad grouping %d for %d->%d", n.Name, n.Op.Groups, in.C, n.Op.OutChannels)
			}
		}
	}
}

func TestRegistryResolvesEveryEntryAndAlias(t *testing.T) {
	for _, e := range Zoo() {
		for _, name := range append([]string{e.Name, e.Display, strings.ToUpper(e.Name)}, e.Aliases...) {
			got, ok := EntryByName(name)
			if !ok {
				t.Errorf("EntryByName(%q) not found", name)
				continue
			}
			if got.Name != e.Name {
				t.Errorf("EntryByName(%q) = %q, want %q", name, got.Name, e.Name)
			}
		}
		// Every registered builder produces a valid graph.
		g := e.Build(1)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: invalid graph: %v", e.Name, err)
		}
	}
	if _, ok := ByName("alexnet"); ok {
		t.Error("ByName resolved an unregistered model")
	}
	if b, ok := ByName("inception_v3"); !ok || b == nil {
		t.Error("the inception_v3 alias must resolve")
	}
	if len(ZooNames()) != len(Zoo()) {
		t.Error("ZooNames length mismatch")
	}
}

// TestEntryByNameAllocatesNothing: every by-name request resolves its model
// here, so a lower-case name resolves without rebuilding the zoo table or
// lower-casing its display names, and Zoo hands out a slice of its own.
func TestEntryByNameAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := EntryByName(" nasnet-a "); !ok {
			t.Fatal("nasnet-a does not resolve")
		}
	}); allocs != 0 {
		t.Errorf("EntryByName allocates %.0f times a call, want 0", allocs)
	}
	z := Zoo()
	z[0].Name = "changed"
	if Zoo()[0].Name != "inception" {
		t.Error("a caller's edit of Zoo's slice reached the registry")
	}
}
