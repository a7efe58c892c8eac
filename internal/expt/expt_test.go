package expt

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
)

// quickCfg uses the reduced model set so every experiment finishes fast.
func quickCfg() Config {
	return Config{Device: gpusim.TeslaV100, Batch: 1, Quick: true}
}

// benchmarksFirst returns the first benchmark graph for a config.
func benchmarksFirst(c Config) *graph.Graph {
	_, graphs := c.benchmarks()
	return graphs[0]
}

func TestAllExperimentsRegistered(t *testing.T) {
	for _, name := range Names() {
		if _, ok := All[name]; !ok {
			t.Errorf("experiment %q in Names but not in All", name)
		}
	}
	if len(Names()) != len(All) {
		t.Errorf("Names lists %d experiments, All has %d", len(Names()), len(All))
	}
}

// runExpt executes one experiment into a buffer.
func runExpt(t *testing.T, name string, cfg Config) string {
	t.Helper()
	var buf bytes.Buffer
	if err := All[name](context.Background(), cfg, &buf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s produced no output", name)
	}
	return out
}

func TestFig1(t *testing.T) {
	out := runExpt(t, "fig1", quickCfg())
	for _, want := range []string{"VGG-16", "Inception V3", "NasNet", "GTX 980Ti", "Tesla V100"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 missing %q", want)
		}
	}
}

func TestFig2StageProfiles(t *testing.T) {
	out := runExpt(t, "fig2", quickCfg())
	for _, want := range []string{"Sequential", "Greedy", "IOS", "GFLOPs", "util"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 missing %q", want)
		}
	}
}

func TestFig8WarpRatio(t *testing.T) {
	out := runExpt(t, "fig8", quickCfg())
	if !strings.Contains(out, "active warps") || !strings.Contains(out, "paper: 1.58x") {
		t.Errorf("fig8 output unexpected:\n%s", out)
	}
}

func TestTable2Inventory(t *testing.T) {
	out := runExpt(t, "table2", Config{Device: gpusim.TeslaV100, Batch: 1})
	for _, want := range []string{"Inception V3", "RandWire", "NasNet", "SqueezeNet", "Conv-Relu", "Relu-SepConv"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestQuickScheduleComparison(t *testing.T) {
	out := runExpt(t, "fig6", quickCfg())
	for _, want := range SchedulePolicies {
		if !strings.Contains(out, want) {
			t.Errorf("fig6 missing series %q", want)
		}
	}
	if !strings.Contains(out, "GeoMean") {
		t.Error("fig6 missing GeoMean group")
	}
}

func TestQuickFrameworkComparison(t *testing.T) {
	out := runExpt(t, "fig7", quickCfg())
	for _, want := range []string{"Tensorflow", "TASO", "TensorRT", "IOS"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 missing %q", want)
		}
	}
}

func TestQuickFig9Pruning(t *testing.T) {
	out := runExpt(t, "fig9", quickCfg())
	for _, want := range []string{"r=3,s=8", "r=1,s=3", "latency ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig9 missing %q", want)
		}
	}
}

func TestQuickTable3Specialization(t *testing.T) {
	out := runExpt(t, "table3", quickCfg())
	if !strings.Contains(out, "batch-size specialization") || !strings.Contains(out, "device specialization") {
		t.Errorf("table3 output unexpected:\n%s", out)
	}
}

func TestQuickFig10(t *testing.T) {
	out := runExpt(t, "fig10", quickCfg())
	if !strings.Contains(out, "optimized for batch 1") || !strings.Contains(out, "optimized for batch 32") {
		t.Errorf("fig10 output unexpected")
	}
}

func TestQuickFig12(t *testing.T) {
	out := runExpt(t, "fig12", quickCfg())
	if !strings.Contains(out, "TVM-AutoTune") || !strings.Contains(out, "GPU hours") {
		t.Errorf("fig12 output unexpected")
	}
}

func TestQuickTable1(t *testing.T) {
	out := runExpt(t, "table1", quickCfg())
	if !strings.Contains(out, "#(S,S')") || !strings.Contains(out, "#schedules") {
		t.Errorf("table1 output unexpected")
	}
}

func TestQuickCombo(t *testing.T) {
	out := runExpt(t, "combo", quickCfg())
	if !strings.Contains(out, "IOS+AutoTune") {
		t.Errorf("combo output unexpected")
	}
}

func TestAblationContention(t *testing.T) {
	out := runExpt(t, "ablation-contention", quickCfg())
	if !strings.Contains(out, "contention") || !strings.Contains(out, "speedup") {
		t.Errorf("ablation output unexpected")
	}
}

func TestAblationSerialTail(t *testing.T) {
	out := runExpt(t, "ablation-serial", quickCfg())
	if !strings.Contains(out, "r=1,s=8") {
		t.Errorf("serial ablation output unexpected")
	}
}

func TestQuickLightweight(t *testing.T) {
	out := runExpt(t, "lightweight", quickCfg())
	for _, want := range []string{"MobileNetV2", "ShuffleNet", "ios speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("lightweight missing %q", want)
		}
	}
}

func TestLatencyOfUnknownPolicy(t *testing.T) {
	c := quickCfg().withDefaults()
	g := benchmarksFirst(c)
	for _, policy := range []string{"nope", ""} {
		if _, _, err := c.latencyOf(context.Background(), g, policy); err == nil {
			t.Errorf("policy %q accepted", policy)
		}
	}
}

// TestRunSearchesOnce pins the per-run caches: a second search of a graph
// within one run measures nothing (every block is a block-cache hit),
// while a fresh Config — the next run — starts cold and measures again.
func TestRunSearchesOnce(t *testing.T) {
	ctx := context.Background()
	c := quickCfg().withDefaults()
	g := benchmarksFirst(c)
	first, err := c.optimize(ctx, g, core.Both)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Measurements == 0 {
		t.Fatal("a run's first search measured nothing")
	}
	again, err := c.optimize(ctx, g, core.Both)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Measurements != 0 {
		t.Errorf("a run's second search of %s measured %d stages, want 0", g.Name, again.Stats.Measurements)
	}
	if again.Schedule.String() != first.Schedule.String() {
		t.Errorf("the cached schedule differs from the searched one")
	}
	fresh, err := quickCfg().withDefaults().optimize(ctx, g, core.Both)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.Measurements != first.Stats.Measurements {
		t.Errorf("a fresh run's search measured %d stages, want the first run's %d", fresh.Stats.Measurements, first.Stats.Measurements)
	}
}

func TestQuickSpecializeRows(t *testing.T) {
	rows, err := SpecializeRows(context.Background(), quickCfg(), []int{1, 2})
	if err != nil {
		t.Fatalf("SpecializeRows: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("quick specialize rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if len(r.Batches) != 2 || len(r.LatencyMS) != 2 || len(r.Penalty) != 2 {
		t.Fatalf("row shape wrong: %+v", r)
	}
	if !r.DiagonalWins {
		t.Error("specialized schedule lost to a reused one")
	}
	for i := range r.Batches {
		if r.Penalty[i][i] != 1 {
			t.Errorf("penalty diagonal [%d][%d] = %v, want 1", i, i, r.Penalty[i][i])
		}
		for j := range r.Batches {
			if r.LatencyMS[i][j] <= 0 {
				t.Errorf("latency_ms[%d][%d] = %v", i, j, r.LatencyMS[i][j])
			}
		}
	}
}

func TestQuickSpecializeExperiment(t *testing.T) {
	out := runExpt(t, "specialize", quickCfg())
	for _, want := range []string{"Batch specialization", "diagonal wins every column: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("specialize output missing %q:\n%s", want, out)
		}
	}
}
