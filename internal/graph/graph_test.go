package graph

import (
	"strings"
	"testing"
)

// small builds input(1,3,32,32) -> conv8 -> {conv16a, conv16b} -> concat.
func small(t *testing.T) *Graph {
	t.Helper()
	g := New("small")
	in := g.Input("in", Shape{1, 3, 32, 32})
	c0 := g.Conv("c0", in, ConvOpts{Out: 8, Kernel: 3})
	g.Concat("cat",
		g.Conv("ca", c0, ConvOpts{Out: 16, Kernel: 3}),
		g.Conv("cb", c0, ConvOpts{Out: 16, Kernel: 5}))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestBuilderShapes(t *testing.T) {
	g := small(t)
	if got := g.NodeByName("c0").Output; got != (Shape{1, 8, 32, 32}) {
		t.Errorf("c0 shape = %v", got)
	}
	if got := g.NodeByName("cat").Output; got != (Shape{1, 32, 32, 32}) {
		t.Errorf("cat shape = %v", got)
	}
}

func TestConvOptsDefaults(t *testing.T) {
	op := ConvOpts{Out: 4}.normalize()
	if op.KernelH != 1 || op.KernelW != 1 || op.StrideH != 1 || op.Groups != 1 {
		t.Errorf("defaults wrong: %+v", op)
	}
	if op.Act != ActReLU {
		t.Error("default activation should be ReLU")
	}
	op = ConvOpts{Out: 4, Kernel: 5, NoAct: true}.normalize()
	if op.PadH != 2 || op.PadW != 2 {
		t.Errorf("same padding wrong: %+v", op)
	}
	if op.Act != ActNone {
		t.Error("NoAct ignored")
	}
	op = ConvOpts{Out: 4, KernelH: 1, KernelW: 7}.normalize()
	if op.PadH != 0 || op.PadW != 3 {
		t.Errorf("asymmetric padding wrong: %+v", op)
	}
	op = ConvOpts{Out: 4, Kernel: 3, Valid: true}.normalize()
	if op.PadH != 0 || op.PadW != 0 {
		t.Errorf("valid padding wrong: %+v", op)
	}
}

func TestStridedShapes(t *testing.T) {
	g := New("strided")
	in := g.Input("in", Shape{2, 3, 224, 224})
	c := g.Conv("c", in, ConvOpts{Out: 32, Kernel: 3, Stride: 2, Valid: true})
	if c.Output != (Shape{2, 32, 111, 111}) {
		t.Errorf("valid strided conv shape = %v", c.Output)
	}
	p := g.Pool("p", c, PoolOpts{Kernel: 3, Stride: 2, Valid: true})
	if p.Output != (Shape{2, 32, 55, 55}) {
		t.Errorf("pool shape = %v", p.Output)
	}
	gp := g.GlobalPool("gp", p)
	if gp.Output != (Shape{2, 32, 1, 1}) {
		t.Errorf("globalpool shape = %v", gp.Output)
	}
	m := g.Matmul("fc", gp, 10)
	if m.Output != (Shape{2, 10, 1, 1}) {
		t.Errorf("matmul shape = %v", m.Output)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	g := New("dup")
	in := g.Input("in", Shape{1, 3, 8, 8})
	g.Conv("x", in, ConvOpts{Out: 4})
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	g.Conv("x", in, ConvOpts{Out: 4})
}

func TestForeignInputPanics(t *testing.T) {
	g1 := New("g1")
	in1 := g1.Input("in", Shape{1, 3, 8, 8})
	g2 := New("g2")
	defer func() {
		if recover() == nil {
			t.Error("foreign input did not panic")
		}
	}()
	g2.Conv("c", in1, ConvOpts{Out: 4})
}

func TestShapeMismatchPanics(t *testing.T) {
	g := New("mismatch")
	in := g.Input("in", Shape{1, 3, 8, 8})
	a := g.Conv("a", in, ConvOpts{Out: 4, Kernel: 3})
	b := g.Conv("b", in, ConvOpts{Out: 4, Kernel: 3, Stride: 2})
	defer func() {
		if recover() == nil {
			t.Error("add of mismatched shapes did not panic")
		}
	}()
	g.Add("sum", a, b)
}

func TestWithBatch(t *testing.T) {
	g := small(t)
	g32, err := g.WithBatch(32)
	if err != nil {
		t.Fatalf("WithBatch: %v", err)
	}
	if err := g32.Validate(); err != nil {
		t.Fatalf("WithBatch Validate: %v", err)
	}
	if len(g32.Nodes) != len(g.Nodes) {
		t.Fatalf("node count changed: %d vs %d", len(g32.Nodes), len(g.Nodes))
	}
	if got := g32.NodeByName("cat").Output; got != (Shape{32, 32, 32, 32}) {
		t.Errorf("batched cat shape = %v", got)
	}
	// Original untouched.
	if g.NodeByName("cat").Output.N != 1 {
		t.Error("WithBatch mutated the original graph")
	}
}

func TestSchedulableNodesExcludesInputs(t *testing.T) {
	g := small(t)
	for _, n := range g.SchedulableNodes() {
		if n.Op.Kind == OpInput {
			t.Error("input node in schedulable set")
		}
	}
	if got := len(g.SchedulableNodes()); got != 4 {
		t.Errorf("schedulable count = %d, want 4", got)
	}
}

func TestComputeStats(t *testing.T) {
	g := small(t)
	st := g.ComputeStats()
	if st.Ops != 4 || st.Convs != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalFLOPs <= 0 || st.MeanConvFLOPs <= 0 {
		t.Errorf("stats flops = %+v", st)
	}
}

func TestOpString(t *testing.T) {
	g := small(t)
	s := g.NodeByName("ca").Op.String()
	if !strings.Contains(s, "conv") || !strings.Contains(s, "3x3") {
		t.Errorf("op string = %q", s)
	}
}

func TestSepConvSumShape(t *testing.T) {
	g := New("sepsum")
	in := g.Input("in", Shape{1, 8, 16, 16})
	a := g.SepConv("a", in, ConvOpts{Out: 8, Kernel: 3})
	b := g.SepConv("b", in, ConvOpts{Out: 8, Kernel: 3})
	c := g.SepConvSum("c", []*Node{a, b}, ConvOpts{Out: 12, Kernel: 3})
	if c.Output != (Shape{1, 12, 16, 16}) {
		t.Errorf("sepconvsum shape = %v", c.Output)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFLOPsAccounting(t *testing.T) {
	g := New("flops")
	in := g.Input("in", Shape{1, 16, 10, 10})
	c := g.Conv("c", in, ConvOpts{Out: 32, Kernel: 3})
	// 2 * outC*outH*outW * inC*kh*kw = 2*32*100*16*9
	want := 2.0 * 32 * 100 * 16 * 9
	if got := FLOPs(c); got != want {
		t.Errorf("conv FLOPs = %g, want %g", got, want)
	}
	m := g.Matmul("m", g.GlobalPool("gp", c), 10)
	if got, want := FLOPs(m), 2.0*32*10; got != want {
		t.Errorf("matmul FLOPs = %g, want %g", got, want)
	}
	if WeightBytes(c) != 4*32*16*9 {
		t.Errorf("conv weight bytes = %g", WeightBytes(c))
	}
	if MemoryBytes(c) <= WeightBytes(c) {
		t.Error("memory bytes should include activations")
	}
}

func TestValidateCatchesBrokenGraphs(t *testing.T) {
	g := small(t)
	// Corrupt the output shape.
	g.NodeByName("c0").Output.C = 999
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted corrupted shape")
	}
}

func TestWithBatchInvalid(t *testing.T) {
	g := small(t)
	for _, n := range []int{0, -1, -32} {
		if _, err := g.WithBatch(n); err == nil {
			t.Errorf("WithBatch(%d) = nil error, want rejection", n)
		}
	}
}

func TestValidateInputBatchMismatch(t *testing.T) {
	g := New("twin")
	a := g.Input("a", Shape{2, 3, 8, 8})
	b := g.Input("b", Shape{4, 3, 8, 8})
	g.Conv("ca", a, ConvOpts{Out: 3})
	g.Conv("cb", b, ConvOpts{Out: 3})
	err := g.Validate()
	if err == nil {
		t.Fatal("Validate accepted inputs with conflicting batch dims")
	}
	for _, want := range []string{"\"a\"", "\"b\"", "2", "4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// The shared error path also guards FromJSON (it calls Validate), so
	// a serialized multi-input graph with inconsistent batches is
	// rejected instead of mis-keying serving caches on the first input.
	consistent := New("twin")
	a2 := consistent.Input("a", Shape{2, 3, 8, 8})
	b2 := consistent.Input("b", Shape{2, 3, 8, 8})
	consistent.Conv("ca", a2, ConvOpts{Out: 3})
	consistent.Conv("cb", b2, ConvOpts{Out: 3})
	if err := consistent.Validate(); err != nil {
		t.Fatalf("consistent twin-input graph rejected: %v", err)
	}
	data, err := consistent.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(data), "[2,3,8,8]", "[4,3,8,8]", 1)
	if mangled == string(data) {
		t.Fatal("test setup: shape replacement did not apply")
	}
	if _, err := FromJSON([]byte(mangled)); err == nil {
		t.Error("FromJSON accepted a graph with conflicting input batches")
	}
}

func TestValidateNonPositiveInputBatch(t *testing.T) {
	g := New("zero")
	g.Input("in", Shape{0, 3, 8, 8})
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted an input with batch 0")
	}
}
