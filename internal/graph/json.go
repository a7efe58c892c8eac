package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// JSON (de)serialization of computation graphs, used by cmd/iosopt so
// schedules can be produced for externally defined models.

type jsonGraph struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
}

type jsonNode struct {
	Name   string   `json:"name"`
	Op     string   `json:"op"`
	Inputs []string `json:"inputs,omitempty"`

	// Input shape (op == "input").
	Shape *[4]int `json:"shape,omitempty"`

	// Conv / sepconv / pool parameters.
	Out     int    `json:"out,omitempty"`
	KernelH int    `json:"kernel_h,omitempty"`
	KernelW int    `json:"kernel_w,omitempty"`
	StrideH int    `json:"stride_h,omitempty"`
	StrideW int    `json:"stride_w,omitempty"`
	PadH    int    `json:"pad_h,omitempty"`
	PadW    int    `json:"pad_w,omitempty"`
	Groups  int    `json:"groups,omitempty"`
	Act     string `json:"act,omitempty"`
	Pool    string `json:"pool,omitempty"`

	// Matmul.
	OutFeatures int `json:"out_features,omitempty"`
}

// MarshalJSON serializes the graph.
func (g *Graph) MarshalJSON() ([]byte, error) {
	out := jsonGraph{Name: g.Name}
	for _, n := range g.Nodes {
		jn := jsonNode{Name: n.Name, Op: n.Op.Kind.String()}
		for _, in := range n.Inputs {
			jn.Inputs = append(jn.Inputs, in.Name)
		}
		switch n.Op.Kind {
		case OpInput:
			s := n.Output
			jn.Shape = &[4]int{s.N, s.C, s.H, s.W}
		case OpConv, OpSepConv:
			jn.Out = n.Op.OutChannels
			jn.KernelH, jn.KernelW = n.Op.KernelH, n.Op.KernelW
			jn.StrideH, jn.StrideW = n.Op.StrideH, n.Op.StrideW
			jn.PadH, jn.PadW = n.Op.PadH, n.Op.PadW
			jn.Groups = n.Op.Groups
			jn.Act = n.Op.Act.String()
		case OpPool:
			jn.KernelH, jn.KernelW = n.Op.KernelH, n.Op.KernelW
			jn.StrideH, jn.StrideW = n.Op.StrideH, n.Op.StrideW
			jn.PadH, jn.PadW = n.Op.PadH, n.Op.PadW
			jn.Pool = n.Op.Pool.String()
		case OpMatmul:
			jn.OutFeatures = n.Op.OutFeatures
		}
		out.Nodes = append(out.Nodes, jn)
	}
	return json.MarshalIndent(out, "", "  ")
}

// Fingerprint returns a short stable content hash of the graph: 16 hex
// digits of the SHA-256 of a binary encoding of what MarshalJSON emits —
// the graph's name and, per node, its name, op kind, inputs and the fields
// MarshalJSON writes for that kind — followed by the manual block cuts
// (CutBlock), which the JSON form does not carry but Partition obeys. Two
// graphs with the same structure, operator parameters, node names and
// blocks share a fingerprint, so it can key caches of per-graph artifacts
// such as optimized schedules; a graph and its JSON round trip share one
// exactly when the graph has no manual cuts. The batch size is part of the
// input shapes and therefore of the hash. The error is always nil.
func (g *Graph) Fingerprint() (string, error) {
	h := sha256.New()
	var buf [512]byte
	b := appendString(buf[:0], g.Name)
	b = binary.AppendUvarint(b, uint64(len(g.Nodes)))
	for _, n := range g.Nodes {
		if len(b) > len(buf)/2 {
			h.Write(b)
			b = b[:0]
		}
		b = appendString(b, n.Name)
		b = binary.AppendVarint(b, int64(n.Op.Kind))
		// Inputs by position: names are unique, so a position names a node.
		b = binary.AppendUvarint(b, uint64(len(n.Inputs)))
		for _, in := range n.Inputs {
			b = binary.AppendVarint(b, int64(in.ID))
		}
		op := &n.Op
		switch op.Kind {
		case OpInput:
			s := n.Output
			b = appendInts(b, s.N, s.C, s.H, s.W)
		case OpConv, OpSepConv:
			b = appendInts(b, op.OutChannels, op.KernelH, op.KernelW, op.StrideH, op.StrideW, op.PadH, op.PadW, op.Groups)
			b = appendBool(b, op.Act == ActReLU) // the JSON spells every other value "none"
		case OpPool:
			b = appendInts(b, op.KernelH, op.KernelW, op.StrideH, op.StrideW, op.PadH, op.PadW)
			b = appendBool(b, op.Pool == AvgPool) // the JSON spells every other value "max"
		case OpMatmul:
			b = appendInts(b, op.OutFeatures)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(g.cuts)))
	for _, c := range g.cuts {
		b = binary.AppendVarint(b, int64(c))
	}
	h.Write(b)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])[:8]), nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// FromJSON reconstructs a graph. Nodes must appear in topological order.
func FromJSON(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	g := New(jg.Name)
	for i, jn := range jg.Nodes {
		ins := make([]*Node, 0, len(jn.Inputs))
		for _, name := range jn.Inputs {
			n := g.NodeByName(name)
			if n == nil {
				return nil, fmt.Errorf("graph: node %d (%q) references unknown input %q (inputs must precede consumers)", i, jn.Name, name)
			}
			ins = append(ins, n)
		}
		op, err := jn.toOp()
		if err != nil {
			return nil, fmt.Errorf("graph: node %q: %w", jn.Name, err)
		}
		if name := g.nodeName(jn.Name, op.Kind); g.NodeByName(name) != nil {
			return nil, fmt.Errorf("graph: node %d: name %q is already taken", i, name)
		}
		if op.Kind == OpInput {
			if jn.Shape == nil {
				return nil, fmt.Errorf("graph: input node %q needs a shape", jn.Name)
			}
			s := *jn.Shape
			g.Input(jn.Name, Shape{N: s[0], C: s[1], H: s[2], W: s[3]})
			continue
		}
		shapes := make([]Shape, len(ins))
		for j, in := range ins {
			shapes[j] = in.Output
		}
		out, err := outputShape(op, shapes)
		if err != nil {
			return nil, fmt.Errorf("graph: node %q: %w", jn.Name, err)
		}
		g.add(jn.Name, op, ins, out)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func (jn jsonNode) toOp() (Op, error) {
	var op Op
	switch jn.Op {
	case "input":
		op.Kind = OpInput
		return op, nil
	case "conv":
		op.Kind = OpConv
	case "sepconv":
		op.Kind = OpSepConv
	case "pool":
		op.Kind = OpPool
	case "matmul":
		op.Kind = OpMatmul
		op.OutFeatures = jn.OutFeatures
		return op, nil
	case "concat":
		op.Kind = OpConcat
		return op, nil
	case "add":
		op.Kind = OpAdd
		return op, nil
	case "relu":
		op.Kind = OpReLU
		return op, nil
	case "identity":
		op.Kind = OpIdentity
		return op, nil
	case "globalpool":
		op.Kind = OpGlobalPool
		return op, nil
	default:
		return op, fmt.Errorf("unknown op %q", jn.Op)
	}
	op.OutChannels = jn.Out
	op.KernelH, op.KernelW = orDefault(jn.KernelH, 1), orDefault(jn.KernelW, 1)
	op.StrideH, op.StrideW = orDefault(jn.StrideH, 1), orDefault(jn.StrideW, 1)
	op.PadH, op.PadW = jn.PadH, jn.PadW
	op.Groups = orDefault(jn.Groups, 1)
	switch jn.Act {
	case "relu":
		op.Act = ActReLU
	case "", "none":
		op.Act = ActNone
	default:
		return op, fmt.Errorf("unknown activation %q", jn.Act)
	}
	switch jn.Pool {
	case "avg":
		op.Pool = AvgPool
	case "", "max":
		op.Pool = MaxPool
	default:
		return op, fmt.Errorf("unknown pool kind %q", jn.Pool)
	}
	return op, nil
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}
