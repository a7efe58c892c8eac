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
	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
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

	// caches is the run's own measurement memo and block cache, made by
	// withDefaults: one experiment run searches and measures through
	// them as a server does, and the next run starts cold.
	caches *caches
}

// caches is what one experiment run searches and measures through.
type caches struct {
	measure *measure.Cache
	blocks  *blockcache.Cache
}

func (c Config) withDefaults() Config {
	if c.Device.SMs == 0 {
		c.Device = gpusim.TeslaV100
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.caches == nil {
		c.caches = &caches{measure: measure.NewCache(), blocks: blockcache.NewCache()}
	}
	return c
}

// profiler returns a profiler for dev on the run's measurement memo.
func (c Config) profiler(dev gpusim.Spec) *profile.Profiler {
	p := profile.New(dev)
	p.SetMeasureCache(c.caches.measure)
	return p
}

// search runs IOS on g through the run's block cache.
func (c Config) search(ctx context.Context, g *graph.Graph, prof *profile.Profiler, opts core.Options) (*core.Result, error) {
	return core.OptimizeContext(ctx, g, prof, opts.WithBlockCache(c.caches.blocks))
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

// measureSchedule measures a schedule on the configured device.
func (c Config) measureSchedule(s *schedule.Schedule) (float64, error) {
	return c.profiler(c.Device).MeasureSchedule(s)
}

// optimize runs IOS with the given strategy set on the configured device.
func (c Config) optimize(ctx context.Context, g *graph.Graph, strategies core.StrategySet) (*core.Result, error) {
	opts := c.Opts
	opts.Strategies = strategies
	return c.search(ctx, g, c.profiler(c.Device), opts)
}

// latencyOf resolves one named schedule policy on a graph — "Sequential",
// "Greedy", "IOS" (IOS-Both) or any name core.ParseStrategySet takes but
// the empty one — and returns its measured latency and the schedule.
func (c Config) latencyOf(ctx context.Context, g *graph.Graph, policy string) (float64, *schedule.Schedule, error) {
	var (
		s   *schedule.Schedule
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
			s = res.Schedule
		}
	}
	if err != nil {
		return 0, nil, err
	}
	lat, err := c.measureSchedule(s)
	return lat, s, err
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
