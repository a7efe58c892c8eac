package baseline

import (
	"testing"

	"ios/internal/models"
	"ios/internal/schedule"
)

func TestSequentialIsValidAndSerial(t *testing.T) {
	g := models.Figure2Block(1)
	s, err := Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, st := range s.Stages {
		if len(st.Groups) != 1 {
			t.Errorf("sequential stage has %d groups", len(st.Groups))
		}
		if st.Strategy != schedule.Concurrent {
			t.Error("sequential stage strategy wrong")
		}
	}
}

func TestGreedyStageStructure(t *testing.T) {
	g := models.Figure2Block(1)
	s, err := Greedy(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Figure 2's greedy: {a, c, d}, {b}, {concat}.
	if s.NumStages() != 3 {
		t.Fatalf("greedy stages = %d, want 3", s.NumStages())
	}
	if got := s.Stages[0].NumOps(); got != 3 {
		t.Errorf("first greedy stage ops = %d, want 3", got)
	}
	for _, grp := range s.Stages[0].Groups {
		if len(grp) != 1 {
			t.Error("ready ops must be singleton groups")
		}
	}
}

func TestGreedyOnAllBenchmarks(t *testing.T) {
	for _, b := range models.Benchmarks() {
		g := b(1)
		s, err := Greedy(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}

func TestSequentialOnAllBenchmarks(t *testing.T) {
	for _, b := range models.Benchmarks() {
		g := b(1)
		s, err := Sequential(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}
