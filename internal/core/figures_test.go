package core

// The paper's two illustration graphs that only the DP tests search.

import "ios/internal/graph"

// figure5Toy builds the three-operator graph of Figure 5: a is followed by
// b, and c is independent of both. The DP walkthrough in the paper's
// Figure 5 enumerates this graph's six states.
func figure5Toy(batch int) *graph.Graph {
	g := graph.New("Figure-5 toy")
	in := g.Input("input", graph.Shape{N: batch, C: 64, H: 28, W: 28})
	a := g.Conv("a", in, graph.ConvOpts{Out: 64, Kernel: 3})
	g.Conv("b", a, graph.ConvOpts{Out: 64, Kernel: 3})
	g.Conv("c", in, graph.ConvOpts{Out: 64, Kernel: 3})
	return g
}

// figure13Chains builds the Appendix A worst-case graph: d independent
// chains of c operators each (Figure 13). For this family the number of
// DP transitions #(S, S') meets the theoretical bound C(c+2, 2)^d exactly,
// which Appendix A uses to show the complexity analysis is tight.
func figure13Chains(c, d int) *graph.Graph {
	g := graph.New("Figure-13 chains")
	in := g.Input("input", graph.Shape{N: 1, C: 8, H: 8, W: 8})
	g.CutBlock()
	ends := make([]*graph.Node, d)
	for j := 0; j < d; j++ {
		x := in
		for i := 0; i < c; i++ {
			x = g.Conv(chainName(i, j), x, graph.ConvOpts{Out: 8, Kernel: 3})
		}
		ends[j] = x
	}
	if d > 1 {
		g.Concat("sink", ends...)
	}
	return g
}

func chainName(i, j int) string {
	return "n" + string(rune('a'+j)) + "_" + string(rune('0'+i))
}
