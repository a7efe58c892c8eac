package models

import "ios/internal/graph"

// Figure2Block builds the example computation graph of the paper's
// Figure 2: an input with 384 channels feeding convolutions a (3×3×384),
// c (3×3×384), d (3×3×768) directly, b (3×3×768) consuming a's output, and
// a concat of b, c, d (1920 channels). Spatial size 15×15 makes conv a
// ≈0.6 GFLOPs and conv d ≈1.2 GFLOPs, matching the figure's annotations.
//
// The sequential schedule runs a, b, c, d one by one; the greedy schedule
// runs {a, c, d} then {b}; IOS finds {a, d} then {b, c}, balancing the two
// stages' work.
func Figure2Block(batch int) *graph.Graph {
	g := graph.New("Figure-2 block")
	in := g.Input("input", graph.Shape{N: batch, C: 384, H: 15, W: 15})
	a := g.Conv("a", in, graph.ConvOpts{Out: 384, Kernel: 3})
	b := g.Conv("b", a, graph.ConvOpts{Out: 768, Kernel: 3})
	c := g.Conv("c", in, graph.ConvOpts{Out: 384, Kernel: 3})
	d := g.Conv("d", in, graph.ConvOpts{Out: 768, Kernel: 3})
	g.Concat("concat", b, c, d)
	return g
}

// Builder constructs a benchmark network at a batch size.
type Builder func(batch int) *graph.Graph

// Benchmarks lists the paper's four benchmark CNNs (Table 2) in its
// reporting order.
func Benchmarks() []Builder {
	return []Builder{InceptionV3, RandWire, NasNetA, SqueezeNet}
}

// BenchmarkNames returns the display names in the same order as
// Benchmarks.
func BenchmarkNames() []string {
	return []string{"Inception V3", "RandWire", "NasNet", "SqueezeNet"}
}
