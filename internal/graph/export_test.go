package graph

// Cuts exposes a graph's manual block boundaries to the external tests.
func Cuts(g *Graph) []int { return g.cuts }
