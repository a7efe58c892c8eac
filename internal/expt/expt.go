// Package expt regenerates every table and figure of the paper's
// evaluation (Names is the experiment index). Each experiment is a
// function that computes structured rows and renders them as text;
// cmd/iosbench exposes them on the command line and the root package's
// bench_test.go wraps them in testing.B benchmarks.
package expt

import (
	"context"
	"fmt"
	"io"

	"ios/internal/baseline"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// Config carries the common experiment knobs.
type Config struct {
	// Device is the simulated GPU (default Tesla V100).
	Device gpusim.Spec
	// Batch is the inference batch size (default 1).
	Batch int
	// Opts configures the IOS search (default: paper settings).
	Opts core.Options
	// Quick replaces the two expensive networks (RandWire, NasNet) with
	// reduced versions so the experiment finishes in seconds; used by
	// tests. Reported shapes are unaffected.
	Quick bool
}

func (c Config) withDefaults() Config {
	if c.Device.SMs == 0 {
		c.Device = gpusim.TeslaV100
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	return c
}

// benchmarks returns the benchmark networks at the configured batch size.
func (c Config) benchmarks() ([]string, []*graph.Graph) {
	names := models.BenchmarkNames()
	graphs := make([]*graph.Graph, len(names))
	for i, b := range models.Benchmarks() {
		graphs[i] = b(c.Batch)
	}
	if c.Quick {
		graphs[1] = models.RandWireSized(c.Batch, 10, models.DefaultRandWireSeed)
		graphs[2] = models.InceptionE(c.Batch) // stand-in for NasNet
	}
	return names, graphs
}

// measureSchedule measures a schedule on a fresh profiler for the device.
func (c Config) measureSchedule(s *schedule.Schedule) (float64, error) {
	return profile.New(c.Device).MeasureSchedule(s)
}

// optimize runs IOS with the given strategy set.
func (c Config) optimize(ctx context.Context, g *graph.Graph, strategies core.StrategySet) (*core.Result, error) {
	opts := c.Opts
	opts.Strategies = strategies
	return core.OptimizeContext(ctx, g, profile.New(c.Device), opts)
}

// latencyOf resolves one named schedule policy on a graph: "Sequential",
// "Greedy", "IOS" (IOS-Both) or any name core.ParseStrategySet takes but
// the empty one.
func (c Config) latencyOf(ctx context.Context, g *graph.Graph, policy string) (float64, *core.Stats, error) {
	var (
		s   *schedule.Schedule
		st  *core.Stats
		err error
	)
	switch policy {
	case "Sequential":
		s, err = baseline.Sequential(g)
	case "Greedy":
		s, err = baseline.Greedy(g)
	default:
		name := policy
		if name == "IOS" {
			name = "IOS-Both"
		}
		set, perr := core.ParseStrategySet(name)
		if perr != nil || name == "" { // "" parses as the default set
			return 0, nil, fmt.Errorf("expt: unknown policy %q", policy)
		}
		var res *core.Result
		if res, err = c.optimize(ctx, g, set); err == nil {
			s, st = res.Schedule, &res.Stats
		}
	}
	if err != nil {
		return 0, nil, err
	}
	lat, err := c.measureSchedule(s)
	return lat, st, err
}

// Runner is an experiment entry point: it writes its report to w, and
// returns the wrapped ctx.Err() when ctx ends one of its searches.
type Runner func(ctx context.Context, c Config, w io.Writer) error

// All maps experiment ids to runners, for cmd/iosbench.
var All = map[string]Runner{
	"table1":     Table1,
	"table2":     Table2,
	"table3":     Table3,
	"fig1":       Fig1,
	"fig2":       Fig2,
	"fig6":       Fig6,
	"fig7":       Fig7,
	"fig8":       Fig8,
	"fig9":       Fig9,
	"fig10":      Fig10,
	"fig11":      Fig11,
	"fig12":      Fig12,
	"fig14":      Fig14,
	"fig15":      Fig15,
	"fig16":      Fig16,
	"resnet":     ResNet,
	"specialize": Specialize,
}

// Names returns the experiment ids in report order: the paper's tables
// and figures first, then the extension studies (see extensions.go).
func Names() []string {
	return append([]string{"fig1", "fig2", "table1", "table2", "fig6", "fig7", "fig8",
		"fig9", "table3", "fig10", "fig11", "fig12", "fig14", "fig15", "fig16", "resnet",
		"specialize"},
		ExtensionNames()...)
}

// benchmarksFirst returns the first benchmark graph for a config (test
// helper kept here to reuse the unexported config methods).
func benchmarksFirst(c Config) *graph.Graph {
	_, graphs := c.benchmarks()
	return graphs[0]
}
