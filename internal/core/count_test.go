package core

import (
	"math"
	"testing"
)

// TestFigure13BoundIsTight reproduces Appendix A's tightness analysis: on
// d independent chains of c operators (Figure 13), the DP's transition
// pairs decompose per chain into prefix/suffix combinations, so the exact
// count is C(c+2,2)^d − (c+1)^d: the paper's bound C(c+2,2)^d counts all
// per-chain (prefix, suffix) tuples including the globally-empty ending,
// and (c+1)^d of those tuples have an empty ending in every chain. The
// test asserts the exact closed form, which shows the bound is tight up
// to that lower-order correction.
func TestFigure13BoundIsTight(t *testing.T) {
	cases := []struct{ c, d int }{{1, 1}, {2, 1}, {3, 1}, {3, 2}, {2, 3}, {4, 2}, {2, 4}}
	for _, tc := range cases {
		comp := analyzeChainsOnly(t, tc.c, tc.d)
		bound := math.Pow(float64((tc.c+2)*(tc.c+1)/2), float64(tc.d))
		exact := bound - math.Pow(float64(tc.c+1), float64(tc.d))
		if float64(comp.Transitions) != exact {
			t.Errorf("c=%d d=%d: transitions = %d, want %g", tc.c, tc.d, comp.Transitions, exact)
		}
		if comp.D != tc.d {
			t.Errorf("c=%d d=%d: width = %d", tc.c, tc.d, comp.D)
		}
		if comp.N != tc.c*tc.d {
			t.Errorf("c=%d d=%d: n = %d", tc.c, tc.d, comp.N)
		}
		if float64(comp.Transitions) > comp.Bound*(1+1e-9) {
			t.Errorf("bound violated: %d > %g", comp.Transitions, comp.Bound)
		}
		// Schedules on independent chains: every interleaved stage
		// partition is feasible, so the count must be positive and grow
		// quickly with d.
		if comp.Schedules < 1 {
			t.Errorf("c=%d d=%d: schedules = %g", tc.c, tc.d, comp.Schedules)
		}
	}
}

// TestFigure13ModelBuilder sanity-checks the zoo builder for the same
// family (the builder adds a concat sink for d > 1, which perturbs the
// pure-chain count but keeps the width).
func TestFigure13ModelBuilder(t *testing.T) {
	g := figure13Chains(3, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	if got := blocks[0].Width(); got != 4 {
		t.Errorf("width = %d, want 4", got)
	}
	if got := len(blocks[0].Nodes); got != 3*4+1 {
		t.Errorf("ops = %d, want 13", got)
	}
}

func analyzeChainsOnly(t *testing.T, c, d int) Complexity {
	t.Helper()
	var edges [][2]int
	for j := 0; j < d; j++ {
		for i := 0; i < c-1; i++ {
			edges = append(edges, [2]int{j*c + i, j*c + i + 1})
		}
	}
	b := buildBlock(t, c*d, edges)
	return AnalyzeBlock(b)
}
