package schedule_test

import (
	"context"
	"strings"
	"testing"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// TestTransferMatchesRecipeRoundTrip: moving a batch-1 IOS schedule onto
// the batch-8 graph gives, stage for stage and node for node, what its
// JSON recipe decodes to against that graph; moving it onto its own
// graph gives the schedule itself.
func TestTransferMatchesRecipeRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{models.Figure2Block(1), models.SqueezeNet(1)} {
		res, err := core.OptimizeContext(context.Background(), g, profile.New(gpusim.TeslaV100), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Schedule
		if same, err := s.Transfer(g); err != nil || same != s {
			t.Fatalf("%s: Transfer onto its own graph = %p, %v; want the schedule itself", g.Name, same, err)
		}
		g8, err := g.WithBatch(8)
		if err != nil {
			t.Fatal(err)
		}
		moved, err := s.Transfer(g8)
		if err != nil {
			t.Fatalf("%s: Transfer: %v", g.Name, err)
		}
		recipe, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := schedule.FromJSON(recipe, g8)
		if err != nil {
			t.Fatal(err)
		}
		if moved.Graph != g8 || len(moved.Stages) != len(want.Stages) {
			t.Fatalf("%s: moved schedule has %d stages on %p, want %d on %p", g.Name, len(moved.Stages), moved.Graph, len(want.Stages), g8)
		}
		for si, st := range moved.Stages {
			w := want.Stages[si]
			if st.Strategy != w.Strategy || len(st.Groups) != len(w.Groups) {
				t.Fatalf("%s: stage %d = %s, want %s", g.Name, si+1, st, w)
			}
			for gi, grp := range st.Groups {
				if len(grp) != len(w.Groups[gi]) {
					t.Fatalf("%s: stage %d = %s, want %s", g.Name, si+1, st, w)
				}
				for ni, n := range grp {
					if n != w.Groups[gi][ni] {
						t.Fatalf("%s: stage %d group %d node %d is %v, want %v", g.Name, si+1, gi+1, ni+1, n, w.Groups[gi][ni])
					}
				}
			}
		}
	}
}

// TestTransferNamesMissingNode: a target graph without one of the
// schedule's nodes is an error naming that node.
func TestTransferNamesMissingNode(t *testing.T) {
	g := graph.New("pair")
	in := g.Input("in", graph.Shape{N: 1, C: 4, H: 8, W: 8})
	a := g.Conv("a", in, graph.ConvOpts{Out: 4, Kernel: 3})
	b := g.Conv("b", in, graph.ConvOpts{Out: 4, Kernel: 3})
	s := &schedule.Schedule{Graph: g, Stages: []schedule.Stage{
		{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{a}, {b}}},
	}}
	other := graph.New("pair")
	oin := other.Input("in", graph.Shape{N: 1, C: 4, H: 8, W: 8})
	other.Conv("a", oin, graph.ConvOpts{Out: 4, Kernel: 3})
	if _, err := s.Transfer(other); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("Transfer onto a graph without b: err = %v, want one naming \"b\"", err)
	}
}
