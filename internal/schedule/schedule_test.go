package schedule

import (
	"strings"
	"testing"

	"ios/internal/graph"
)

// diamond builds in -> a -> {b, c} -> cat plus an independent d.
func diamond() (*graph.Graph, map[string]*graph.Node) {
	g := graph.New("d")
	in := g.Input("in", graph.Shape{N: 1, C: 4, H: 8, W: 8})
	a := g.Conv("a", in, graph.ConvOpts{Out: 8, Kernel: 3})
	b := g.Conv("b", a, graph.ConvOpts{Out: 8, Kernel: 3})
	c := g.Conv("c", a, graph.ConvOpts{Out: 8, Kernel: 3})
	d := g.Conv("d", in, graph.ConvOpts{Out: 8, Kernel: 3})
	cat := g.Concat("cat", b, c)
	return g, map[string]*graph.Node{"a": a, "b": b, "c": c, "d": d, "cat": cat}
}

func TestValidateAcceptsGoodSchedule(t *testing.T) {
	g, n := diamond()
	s := &Schedule{Graph: g, Stages: []Stage{
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["a"]}, {n["d"]}}},
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["b"]}, {n["c"]}}},
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["cat"]}}},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// A scope of at most 64 nodes is placed in CheckStages' own array.
	if n := testing.AllocsPerRun(10, func() { _ = s.Validate() }); n != 0 {
		t.Errorf("Validate of a 6-node graph allocates %.0f times, want 0", n)
	}
}

func TestValidateRejectsMissingOp(t *testing.T) {
	g, n := diamond()
	s := &Schedule{Graph: g, Stages: []Stage{
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["a"], n["b"], n["c"], n["cat"]}}},
	}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "covers") {
		t.Errorf("missing op not rejected: %v", err)
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	g, n := diamond()
	s := &Schedule{Graph: g, Stages: []Stage{
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["a"]}, {n["a"]}}},
	}}
	if err := s.Validate(); err == nil {
		t.Error("duplicate op not rejected")
	}
}

func TestValidateRejectsBackwardEdge(t *testing.T) {
	g, n := diamond()
	s := &Schedule{Graph: g, Stages: []Stage{
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["b"]}, {n["c"]}, {n["d"]}}},
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["a"]}, {n["cat"]}}},
	}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "backwards") {
		t.Errorf("backward edge not rejected: %v", err)
	}
}

func TestValidateRejectsCrossGroupEdge(t *testing.T) {
	g, n := diamond()
	s := &Schedule{Graph: g, Stages: []Stage{
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["a"]}, {n["b"]}, {n["d"]}}},
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["c"]}, {n["cat"]}}},
	}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "crosses groups") {
		t.Errorf("cross-group edge not rejected: %v", err)
	}
}

func TestValidateRejectsGroupOrderViolation(t *testing.T) {
	g, n := diamond()
	s := &Schedule{Graph: g, Stages: []Stage{
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["b"], n["a"]}, {n["d"]}}}, // b before its producer a
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["c"]}, {n["cat"]}}},
	}}
	err := s.Validate()
	if err == nil {
		t.Error("group order violation not rejected")
	}
}

// TestValidateMergeStages: a merge stage validates exactly when its
// operators are merge-eligible — b and c read one tensor, a and d another,
// so each pair merges and a mixed pair does not.
func TestValidateMergeStages(t *testing.T) {
	g, n := diamond()
	merged := func(x, y string) *Schedule {
		stages := []Stage{
			{Strategy: Merge, Groups: [][]*graph.Node{{n["a"]}, {n["d"]}}},
			{Strategy: Merge, Groups: [][]*graph.Node{{n["b"]}, {n["c"]}}},
			{Strategy: Concurrent, Groups: [][]*graph.Node{{n["cat"]}}},
		}
		if x != "" {
			stages = []Stage{
				{Strategy: Concurrent, Groups: [][]*graph.Node{{n["a"]}}},
				{Strategy: Merge, Groups: [][]*graph.Node{{n[x]}, {n[y]}}},
				{Strategy: Concurrent, Groups: [][]*graph.Node{{n["c"], n["cat"]}}},
			}
		}
		return &Schedule{Graph: g, Stages: stages}
	}
	if err := merged("", "").Validate(); err != nil {
		t.Errorf("merge stages over merge-eligible operators rejected: %v", err)
	}
	if err := merged("b", "d").Validate(); err == nil || !strings.Contains(err.Error(), "stage 2 merges operators that are not merge-eligible") {
		t.Errorf("merge stage over operators reading different tensors not rejected: %v", err)
	}
}

func TestValidateRejectsScheduledInput(t *testing.T) {
	g, _ := diamond()
	in := g.NodeByName("in")
	s := &Schedule{Graph: g, Stages: []Stage{
		{Strategy: Concurrent, Groups: [][]*graph.Node{{in}}},
	}}
	if err := s.Validate(); err == nil {
		t.Error("scheduled input not rejected")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, n := diamond()
	s := &Schedule{Graph: g, Stages: []Stage{
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["a"]}, {n["d"]}}},
		{Strategy: Merge, Groups: [][]*graph.Node{{n["b"], n["c"]}}},
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["cat"]}}},
	}}
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data, g)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumStages() != 3 {
		t.Fatalf("stages = %d", back.NumStages())
	}
	if back.Stages[1].Strategy != Merge {
		t.Error("merge strategy lost")
	}
	if back.Stages[0].Groups[1][0] != n["d"] {
		t.Error("node identity lost")
	}
}

func TestFromJSONUnknownNode(t *testing.T) {
	g, _ := diamond()
	_, err := FromJSON([]byte(`{"graph":"d","stages":[{"strategy":"concurrent execution","groups":[["nope"]]}]}`), g)
	if err == nil {
		t.Error("unknown node accepted")
	}
}

func TestStageStringAndOps(t *testing.T) {
	_, n := diamond()
	st := Stage{Strategy: Concurrent, Groups: [][]*graph.Node{{n["a"], n["b"]}, {n["d"]}}}
	if st.NumOps() != 3 {
		t.Errorf("NumOps = %d", st.NumOps())
	}
	s := st.String()
	for _, want := range []string{"a", "b", "d", "|", "concurrent"} {
		if !strings.Contains(s, want) {
			t.Errorf("stage string %q missing %q", s, want)
		}
	}
	if got := len(st.Ops()); got != 3 {
		t.Errorf("Ops len = %d", got)
	}
}

func TestStrategyString(t *testing.T) {
	if Concurrent.String() != "concurrent execution" || Merge.String() != "operator merge" {
		t.Error("strategy names changed")
	}
}

func TestSummarize(t *testing.T) {
	g, n := diamond()
	s := &Schedule{Graph: g, Stages: []Stage{
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["a"]}, {n["d"]}}},
		{Strategy: Merge, Groups: [][]*graph.Node{{n["b"], n["c"]}}},
		{Strategy: Concurrent, Groups: [][]*graph.Node{{n["cat"]}}},
	}}
	got := s.Summarize()
	want := Summary{Stages: 3, Ops: 5, ConcurrentStages: 2, MergeStages: 1, MaxWidth: 2}
	if got != want {
		t.Errorf("Summarize() = %+v, want %+v", got, want)
	}
	if empty := (&Schedule{Graph: g}).Summarize(); empty != (Summary{}) {
		t.Errorf("empty schedule summary = %+v", empty)
	}
}

// TestValidateMessages pins the exact error of every way Validate refuses a
// schedule, the first refusal in stage order winning, and the refusals of
// schedules that name nodes of another build of the same graph: such a node
// counts towards coverage like any other, and its twin in the schedule's
// graph goes unscheduled.
func TestValidateMessages(t *testing.T) {
	g, n := diamond()
	_, twin := diamond()
	in := g.NodeByName("in")
	type groups = [][]*graph.Node
	conc := func(gs groups) Stage { return Stage{Strategy: Concurrent, Groups: gs} }
	rest := []Stage{conc(groups{{n["b"]}, {n["c"]}}), conc(groups{{n["cat"]}})}
	with := func(first ...Stage) []Stage { return append(first, rest...) }
	for _, tc := range []struct {
		name   string
		stages []Stage
		want   string
	}{
		{"no groups", with(conc(groups{{n["a"]}, {n["d"]}}), conc(nil)),
			"schedule: stage 2 has no groups"},
		{"empty group", with(conc(groups{{n["a"]}, {}, {n["d"]}})),
			"schedule: stage 1 group 2 is empty"},
		{"merge-ineligible", with(Stage{Strategy: Merge, Groups: groups{{n["a"], n["cat"]}}}),
			"schedule: stage 1 merges operators that are not merge-eligible"},
		{"scheduled input", with(conc(groups{{n["a"]}, {n["d"], in}})),
			`schedule: input node "in" scheduled in stage 1`},
		{"duplicate", with(conc(groups{{n["a"]}, {n["d"]}}), conc(groups{{n["d"]}})),
			`schedule: node "d" in both stage 1 and stage 2`},
		{"coverage", with(conc(groups{{n["a"]}})),
			"schedule: covers 4 of 5 operators"},
		{"backwards edge", []Stage{conc(groups{{n["b"]}, {n["c"]}, {n["d"]}}), conc(groups{{n["a"]}, {n["cat"]}})},
			`schedule: edge "a"->"b" runs backwards (stage 2 -> 1)`},
		{"cross-group edge", []Stage{conc(groups{{n["a"]}, {n["b"]}, {n["d"]}}), conc(groups{{n["c"]}, {n["cat"]}})},
			`schedule: edge "a"->"b" crosses groups within stage 1`},
		{"group order", []Stage{conc(groups{{n["b"], n["a"]}, {n["d"]}}), conc(groups{{n["c"]}, {n["cat"]}})},
			`schedule: edge "a"->"b" violates group order in stage 1`},
		{"twin in place of its node", with(conc(groups{{n["a"]}, {twin["d"]}})),
			`schedule: operator "d" not scheduled`},
		{"twin beside its node", with(conc(groups{{n["a"]}, {n["d"], twin["d"]}})),
			"schedule: covers 6 of 5 operators"},
		{"twin twice", with(conc(groups{{n["a"]}, {twin["d"]}}), conc(groups{{twin["d"]}})),
			`schedule: node "d" in both stage 1 and stage 2`},
		{"twin before a later refusal", with(conc(groups{{twin["a"]}, {n["d"]}}), conc(nil)),
			"schedule: stage 2 has no groups"},
		{"all twins", []Stage{conc(groups{{twin["a"]}, {twin["d"]}}), conc(groups{{twin["b"]}, {twin["c"]}}), conc(groups{{twin["cat"]}})},
			`schedule: operator "a" not scheduled`},
	} {
		err := (&Schedule{Graph: g, Stages: tc.stages}).Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
	}
}
