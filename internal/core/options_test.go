package core

import (
	"context"
	"testing"

	"ios/internal/graph"
)

// graphNew builds a graph with only an input node.
func graphNew() *graph.Graph {
	g := graph.New("empty")
	g.Input("in", graph.Shape{N: 1, C: 3, H: 8, W: 8})
	return g
}

func TestStrategySetString(t *testing.T) {
	if Both.String() != "IOS-Both" || ParallelOnly.String() != "IOS-Parallel" || MergeOnly.String() != "IOS-Merge" {
		t.Error("strategy set names changed")
	}
}

func TestPruningString(t *testing.T) {
	if DefaultPruning.String() != "r=3,s=8" {
		t.Errorf("default pruning string = %q", DefaultPruning.String())
	}
	if (Pruning{}).String() != "none" {
		t.Errorf("no-pruning string = %q", (Pruning{}).String())
	}
}

func TestWithDefaults(t *testing.T) {
	// Zero options take the paper defaults.
	o := Options{}.Canonical()
	if o.Pruning != DefaultPruning {
		t.Errorf("zero options pruning = %v", o.Pruning)
	}
	// Unpruned keeps its explicit -1 bounds (unbounded), and applying
	// defaults again must not resurrect the default pruning.
	u := Unpruned.Canonical()
	if u.Pruning.R > 0 || u.Pruning.S > 0 {
		t.Errorf("unpruned gained bounds: %v", u.Pruning)
	}
	// Options is deliberately a comparable struct (progress callbacks are
	// a parameter of OptimizeWithProgress, not a field), so == works.
	if again := u.Canonical(); again != u {
		t.Errorf("Canonical is not idempotent: %+v -> %+v", u, again)
	}
	// Explicit pruning is preserved.
	p := Options{Pruning: Pruning{R: 2, S: 5}}.Canonical()
	if p.Pruning != (Pruning{R: 2, S: 5}) {
		t.Errorf("explicit pruning lost: %v", p.Pruning)
	}
}

func TestMaxStageOps(t *testing.T) {
	if got := DefaultPruning.maxStageOps(); got != 24 {
		t.Errorf("maxStageOps = %d, want 24", got)
	}
	if got := (Pruning{}).maxStageOps(); got < 1<<20 {
		t.Errorf("unbounded maxStageOps = %d", got)
	}
	if got := (Pruning{R: 2}).maxStageOps(); got < 1<<20 {
		t.Errorf("partial pruning should be unbounded on stage size, got %d", got)
	}
}

func TestOptimizeEmptyGraph(t *testing.T) {
	g := graphNew()
	res, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.NumStages() != 0 {
		t.Errorf("empty graph produced %d stages", res.Schedule.NumStages())
	}
}

func TestParseStrategySet(t *testing.T) {
	cases := map[string]StrategySet{
		"":             Both,
		"both":         Both,
		"IOS-Both":     Both,
		"parallel":     ParallelOnly,
		"ios-parallel": ParallelOnly,
		"Merge":        MergeOnly,
		"IOS-Merge":    MergeOnly,
	}
	for in, want := range cases {
		got, err := ParseStrategySet(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategySet(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseStrategySet("quantum"); err == nil {
		t.Error("ParseStrategySet accepted an unknown name")
	}
}

func TestOptionsFingerprint(t *testing.T) {
	if got := (Options{}).Fingerprint(); got != "IOS-Both/r=3,s=8" {
		t.Errorf("zero options fingerprint = %q", got)
	}
	if got := Unpruned.Fingerprint(); got != "IOS-Both/none" {
		t.Errorf("unpruned fingerprint = %q", got)
	}
	if got := (Options{Strategies: ParallelOnly, MaxBlockOps: 40}).Fingerprint(); got != "IOS-Parallel/r=3,s=8/block=40" {
		t.Errorf("fingerprint = %q", got)
	}
	// Equal canonical forms fingerprint identically.
	if (Options{}).Fingerprint() != (Options{Pruning: DefaultPruning}).Fingerprint() {
		t.Error("default and explicit-default options fingerprint differently")
	}
}

func TestWorkersExcludedFromFingerprint(t *testing.T) {
	// Workers changes how the search executes, never its result, so
	// cached schedules must be shared across worker counts.
	a := Options{Workers: 1}.Fingerprint()
	b := Options{Workers: 16}.Fingerprint()
	if a != b {
		t.Errorf("fingerprint depends on Workers: %q vs %q", a, b)
	}
}
