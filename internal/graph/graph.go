package graph

import "fmt"

// Node is a single operator in a computation graph. Nodes are created
// through the Graph builder methods, which compute output shapes and keep
// the node list in topological order (a node's inputs always precede it).
type Node struct {
	// ID is the node's index in Graph.Nodes; unique within a graph.
	ID int
	// Name is a human-readable label unique within the graph.
	Name string
	// Op holds the operator type and hyperparameters.
	Op Op
	// Inputs are the producer nodes whose outputs this node consumes, in
	// argument order. Shared inputs (the same node listed by several
	// consumers) are the norm in multi-branch CNNs.
	Inputs []*Node
	// Output is the shape of the tensor this node produces.
	Output Shape

	// outs is the consumer list, maintained by the builder.
	outs []*Node
}

// Outputs returns the consumers of this node's output tensor.
func (n *Node) Outputs() []*Node { return n.outs }

// InputShapes returns the shapes of the node's input tensors.
func (n *Node) InputShapes() []Shape {
	shapes := make([]Shape, len(n.Inputs))
	for i, in := range n.Inputs {
		shapes[i] = in.Output
	}
	return shapes
}

// String renders "name(op)".
func (n *Node) String() string { return fmt.Sprintf("%s(%v)", n.Name, n.Op) }

// Graph is a CNN computation graph under construction or analysis. Create
// one with New, add nodes with the builder methods (Input, Conv, ...), and
// freeze nothing: graphs are cheap, immutable-by-convention values after
// construction.
type Graph struct {
	// Name labels the graph in reports.
	Name string
	// Nodes lists every node in insertion order, which the builder
	// guarantees is a valid topological order.
	Nodes []*Node

	byName map[string]*Node
	// cuts holds manual block boundaries: node counts at which a new
	// block starts. See CutBlock.
	cuts []int
}

// CutBlock records a manual block boundary: nodes added after this call
// belong to the next block. Model builders use it for architectures whose
// blocks consume more than one tensor (NASNet cells, RandWire stages),
// which the automatic single-producer cut cannot discover. When any manual
// cut exists, Partition uses manual boundaries exclusively.
func (g *Graph) CutBlock() {
	n := len(g.Nodes)
	if len(g.cuts) > 0 && g.cuts[len(g.cuts)-1] == n {
		return
	}
	g.cuts = append(g.cuts, n)
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, byName: make(map[string]*Node)}
}

// NodeByName returns the node with the given name, or nil.
func (g *Graph) NodeByName(name string) *Node { return g.byName[name] }

// nodeName is the name add gives the next node: name itself, or
// "<kind>_<index>" when name is empty.
func (g *Graph) nodeName(name string, kind OpKind) string {
	if name == "" {
		return fmt.Sprintf("%s_%d", kind, len(g.Nodes))
	}
	return name
}

// Index returns n's position in g.Nodes, its ID, or -1 for a node of
// another graph.
func (g *Graph) Index(n *Node) int {
	if uint(n.ID) < uint(len(g.Nodes)) && g.Nodes[n.ID] == n {
		return n.ID
	}
	return -1
}

// add appends a node, wiring consumer lists and validating the name.
func (g *Graph) add(name string, op Op, inputs []*Node, out Shape) *Node {
	name = g.nodeName(name, op.Kind)
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("graph %q: duplicate node name %q", g.Name, name))
	}
	for _, in := range inputs {
		if in == nil {
			panic(fmt.Sprintf("graph %q: node %q has nil input", g.Name, name))
		}
		if g.Index(in) < 0 {
			panic(fmt.Sprintf("graph %q: node %q input %q belongs to a different graph", g.Name, name, in.Name))
		}
	}
	n := &Node{ID: len(g.Nodes), Name: name, Op: op, Inputs: inputs, Output: out}
	for _, in := range inputs {
		in.outs = append(in.outs, n)
	}
	g.Nodes = append(g.Nodes, n)
	g.byName[name] = n
	return n
}

// mustShape computes an output shape or panics; the builder API panics on
// malformed architectures because they are programming errors in model
// definitions, not runtime conditions.
func (g *Graph) mustShape(name string, op Op, inputs []*Node) Shape {
	shapes := make([]Shape, len(inputs))
	for i, in := range inputs {
		shapes[i] = in.Output
	}
	out, err := outputShape(op, shapes)
	if err != nil {
		panic(fmt.Sprintf("graph %q: node %q: %v", g.Name, name, err))
	}
	return out
}

// Input adds a graph input placeholder with the given shape.
func (g *Graph) Input(name string, shape Shape) *Node {
	return g.add(name, Op{Kind: OpInput}, nil, shape)
}

// ConvOpts configures a convolution builder call. Zero values select
// sensible defaults: 1×1 kernel, stride 1, "same" padding, dense groups,
// fused ReLU (the paper's Conv-Relu unit).
type ConvOpts struct {
	// Out is the number of output channels (required).
	Out int
	// Kernel sets a square kernel; KernelH/KernelW override it for
	// asymmetric kernels (1×7, 7×1, ...).
	Kernel           int
	KernelH, KernelW int
	// Stride sets both strides; StrideH/StrideW override it.
	Stride           int
	StrideH, StrideW int
	// Valid disables "same" padding (pad 0). PadH/PadW force explicit
	// padding when >= 0 with Explicit set.
	Valid      bool
	Explicit   bool
	PadH, PadW int
	Groups     int
	// NoAct disables the fused ReLU.
	NoAct bool
}

func (o ConvOpts) normalize() Op {
	op := Op{Kind: OpConv, OutChannels: o.Out, Groups: 1, Act: ActReLU}
	op.KernelH, op.KernelW = o.KernelH, o.KernelW
	if o.Kernel != 0 {
		op.KernelH, op.KernelW = o.Kernel, o.Kernel
	}
	if op.KernelH == 0 {
		op.KernelH = 1
	}
	if op.KernelW == 0 {
		op.KernelW = 1
	}
	op.StrideH, op.StrideW = o.StrideH, o.StrideW
	if o.Stride != 0 {
		op.StrideH, op.StrideW = o.Stride, o.Stride
	}
	if op.StrideH == 0 {
		op.StrideH = 1
	}
	if op.StrideW == 0 {
		op.StrideW = 1
	}
	switch {
	case o.Explicit:
		op.PadH, op.PadW = o.PadH, o.PadW
	case o.Valid:
		op.PadH, op.PadW = 0, 0
	default:
		op.PadH, op.PadW = (op.KernelH-1)/2, (op.KernelW-1)/2
	}
	if o.Groups > 0 {
		op.Groups = o.Groups
	}
	if o.NoAct {
		op.Act = ActNone
	}
	return op
}

// Conv adds a convolution (with fused ReLU unless opts.NoAct).
func (g *Graph) Conv(name string, in *Node, opts ConvOpts) *Node {
	op := opts.normalize()
	return g.add(name, op, []*Node{in}, g.mustShape(name, op, []*Node{in}))
}

// SepConv adds a Relu-SepConv unit: depthwise KxK followed by pointwise
// 1×1, with the activation applied before the depthwise kernel as in
// NASNet/RandWire.
func (g *Graph) SepConv(name string, in *Node, opts ConvOpts) *Node {
	op := opts.normalize()
	op.Kind = OpSepConv
	return g.add(name, op, []*Node{in}, g.mustShape(name, op, []*Node{in}))
}

// SepConvSum adds a Relu-SepConv unit that first sums several same-shaped
// input tensors (RandWire's weighted-sum edge aggregation, fused into the
// schedule unit as the paper's Table 2 op inventory implies).
func (g *Graph) SepConvSum(name string, inputs []*Node, opts ConvOpts) *Node {
	op := opts.normalize()
	op.Kind = OpSepConv
	return g.add(name, op, inputs, g.mustShape(name, op, inputs))
}

// PoolOpts configures a pooling builder call.
type PoolOpts struct {
	Kernel int
	Stride int
	// Valid disables "same" padding.
	Valid bool
	Avg   bool
}

// Pool adds a max/avg pooling node.
func (g *Graph) Pool(name string, in *Node, opts PoolOpts) *Node {
	if opts.Kernel == 0 {
		opts.Kernel = 2
	}
	if opts.Stride == 0 {
		opts.Stride = opts.Kernel
	}
	op := Op{Kind: OpPool, KernelH: opts.Kernel, KernelW: opts.Kernel,
		StrideH: opts.Stride, StrideW: opts.Stride}
	if !opts.Valid {
		op.PadH, op.PadW = (opts.Kernel-1)/2, (opts.Kernel-1)/2
	}
	if opts.Avg {
		op.Pool = AvgPool
	}
	return g.add(name, op, []*Node{in}, g.mustShape(name, op, []*Node{in}))
}

// GlobalPool adds a global average pooling node.
func (g *Graph) GlobalPool(name string, in *Node) *Node {
	op := Op{Kind: OpGlobalPool}
	return g.add(name, op, []*Node{in}, g.mustShape(name, op, []*Node{in}))
}

// Matmul adds a fully connected layer.
func (g *Graph) Matmul(name string, in *Node, outFeatures int) *Node {
	op := Op{Kind: OpMatmul, OutFeatures: outFeatures}
	return g.add(name, op, []*Node{in}, g.mustShape(name, op, []*Node{in}))
}

// Concat adds a channel concatenation of the inputs.
func (g *Graph) Concat(name string, inputs ...*Node) *Node {
	op := Op{Kind: OpConcat}
	return g.add(name, op, inputs, g.mustShape(name, op, inputs))
}

// Add adds an elementwise sum of the inputs.
func (g *Graph) Add(name string, inputs ...*Node) *Node {
	op := Op{Kind: OpAdd}
	return g.add(name, op, inputs, g.mustShape(name, op, inputs))
}

// ReLU adds a standalone activation node.
func (g *Graph) ReLU(name string, in *Node) *Node {
	op := Op{Kind: OpReLU}
	return g.add(name, op, []*Node{in}, g.mustShape(name, op, []*Node{in}))
}

// Identity adds a pass-through node.
func (g *Graph) Identity(name string, in *Node) *Node {
	op := Op{Kind: OpIdentity}
	return g.add(name, op, []*Node{in}, g.mustShape(name, op, []*Node{in}))
}

// Validate checks structural invariants: IDs match positions, edges are
// consistent, the node order is topological, and names are unique. The
// builder maintains these by construction; Validate exists for graphs that
// were deserialized or mutated by tests.
func (g *Graph) Validate() error {
	seen := make(map[string]bool, len(g.Nodes))
	// All inputs must agree on the batch dimension: Batch() (and every
	// consumer keying on it — serve caches, batch plans) reads the first
	// input, so a graph whose inputs disagree would be silently mis-keyed.
	firstInput := -1
	for i, n := range g.Nodes {
		if n.Op.Kind != OpInput {
			continue
		}
		if n.Output.N < 1 {
			return fmt.Errorf("graph %q: input %q has non-positive batch %d", g.Name, n.Name, n.Output.N)
		}
		if firstInput < 0 {
			firstInput = i
			continue
		}
		if want := g.Nodes[firstInput]; n.Output.N != want.Output.N {
			return fmt.Errorf("graph %q: input %q batch %d conflicts with input %q batch %d (all inputs must share one batch size)",
				g.Name, n.Name, n.Output.N, want.Name, want.Output.N)
		}
	}
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("graph %q: node %q has ID %d at position %d", g.Name, n.Name, n.ID, i)
		}
		if seen[n.Name] {
			return fmt.Errorf("graph %q: duplicate node name %q", g.Name, n.Name)
		}
		seen[n.Name] = true
		for _, in := range n.Inputs {
			if in.ID >= i {
				return fmt.Errorf("graph %q: node %q consumes %q which does not precede it (not topological)", g.Name, n.Name, in.Name)
			}
			found := false
			for _, c := range in.outs {
				if c == n {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph %q: edge %q->%q missing from consumer list", g.Name, in.Name, n.Name)
			}
		}
		shapes := n.InputShapes()
		if n.Op.Kind != OpInput {
			want, err := outputShape(n.Op, shapes)
			if err != nil {
				return fmt.Errorf("graph %q: node %q: %v", g.Name, n.Name, err)
			}
			if want != n.Output {
				return fmt.Errorf("graph %q: node %q output %v, recomputed %v", g.Name, n.Name, n.Output, want)
			}
		}
	}
	return nil
}

// WithBatch returns a structurally identical graph whose input batch
// dimension is n. Schedules are batch-specific in IOS (Table 3), so
// experiments and batch plans rebuild graphs per batch size. A batch
// size below 1 is rejected with an error (it used to slip through and
// panic later inside shape computation).
func (g *Graph) WithBatch(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph %q: batch size must be >= 1, got %d", g.Name, n)
	}
	out := New(g.Name)
	clone := make([]*Node, len(g.Nodes))
	for i, node := range g.Nodes {
		ins := make([]*Node, len(node.Inputs))
		for j, in := range node.Inputs {
			ins[j] = clone[in.ID]
		}
		if node.Op.Kind == OpInput {
			clone[i] = out.Input(node.Name, node.Output.WithBatch(n))
			continue
		}
		clone[i] = out.add(node.Name, node.Op, ins, out.mustShape(node.Name, node.Op, ins))
	}
	out.cuts = append([]int(nil), g.cuts...)
	return out, nil
}

// Stats summarizes a graph for reporting (Table 2 and Figure 1).
type Stats struct {
	// Ops counts schedulable operators (inputs excluded).
	Ops int
	// Convs counts convolution-like operators (conv, sepconv, matmul).
	Convs int
	// TotalFLOPs sums arithmetic work over all operators.
	TotalFLOPs float64
	// MeanConvFLOPs is TotalFLOPs restricted to convolutions divided by
	// Convs (the paper's "average FLOPs per CONV").
	MeanConvFLOPs float64
}

// ComputeStats returns summary statistics for the graph.
func (g *Graph) ComputeStats() Stats {
	var st Stats
	var convFLOPs float64
	for _, n := range g.Nodes {
		if n.Op.Kind == OpInput {
			continue
		}
		st.Ops++
		f := FLOPs(n)
		st.TotalFLOPs += f
		if n.Op.IsComputeUnit() {
			st.Convs++
			convFLOPs += f
		}
	}
	if st.Convs > 0 {
		st.MeanConvFLOPs = convFLOPs / float64(st.Convs)
	}
	return st
}

// Batch returns the graph's input batch size: the N dimension of the
// first input node, or 1 for a graph without inputs. Schedules are
// specialized per batch size in IOS (Table 3), so serving layers key on
// this value; Validate (and therefore FromJSON) rejects graphs whose
// inputs disagree on the batch dimension, so for validated graphs the
// first input speaks for all of them.
func (g *Graph) Batch() int {
	for _, n := range g.Nodes {
		if n.Op.Kind == OpInput {
			return n.Output.N
		}
	}
	return 1
}

// SchedulableNodes returns the nodes IOS schedules (everything except
// inputs), in topological order.
func (g *Graph) SchedulableNodes() []*Node {
	out := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Op.Kind != OpInput {
			out = append(out, n)
		}
	}
	return out
}
