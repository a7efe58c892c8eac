package expt

import (
	"context"
	"fmt"
	"io"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/report"
)

// Fig1 reproduces the motivation trend (Figure 1): average FLOPs per
// convolution and convolution counts for a 2013/2015/2018 network
// alongside the era's GPU peak performance.
func Fig1(_ context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	entries := []struct {
		year   int
		build  models.Builder
		device gpusim.Spec
	}{
		{2013, models.VGG16, gpusim.GTX980Ti},
		{2015, models.InceptionV3, gpusim.GTX1080},
		{2018, models.NasNetA, gpusim.TeslaV100},
	}
	t := report.NewTable("Figure 1: per-conv FLOPs vs device peak trend",
		"year", "network", "#conv", "avg MFLOPs/conv", "device", "peak GFLOP/s")
	for _, e := range entries {
		g := e.build(1)
		st := g.ComputeStats()
		t.AddRow(e.year, g.Name, st.Convs, st.MeanConvFLOPs/1e6, e.device.Name, e.device.PeakFLOPs/1e9)
	}
	t.Render(w)
	fmt.Fprintln(w, "(device peak rises while per-conv work falls: the utilization gap IOS closes)")
	return nil
}

// Table2 reproduces the benchmark inventory: blocks, operators, and the
// dominant operator type per network.
func Table2(_ context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	t := report.NewTable("Table 2: CNN benchmarks",
		"network", "#blocks", "#operators", "operator type")
	types := []string{"Conv-Relu", "Relu-SepConv", "Relu-SepConv", "Conv-Relu"}
	for i, b := range models.Benchmarks() {
		g := b(c.Batch)
		blocks, err := g.Partition(0)
		if err != nil {
			return err
		}
		t.AddRow(g.Name, len(blocks), g.ComputeStats().Ops, types[i])
	}
	t.Render(w)
	return nil
}

// Table1 reproduces the search-space analysis: for each network's hardest
// block, the operator count n, width d, theoretical transition bound,
// exact transition count #(S, S'), and the total number of feasible
// schedules.
func Table1(_ context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	t := report.NewTable("Table 1: largest-block search space per network",
		"network", "n", "d", "bound C(n/d+2,2)^d", "#(S,S')", "#schedules")
	names, graphs := c.benchmarks()
	for i, g := range graphs {
		comp, err := core.AnalyzeLargestBlock(g)
		if err != nil {
			return err
		}
		t.AddRow(names[i], comp.N, comp.D, comp.Bound, comp.Transitions, comp.Schedules)
	}
	t.Render(w)
	fmt.Fprintln(w, "(paper: Inception 11/6/2.6e4/4.9e3/3.8e6; RandWire 33/8/3.7e9/1.2e6/9.2e22;")
	fmt.Fprintln(w, "        NasNet 18/8/5.2e6/3.1e5/7.2e12; SqueezeNet 6/3/2.2e2/51/1.3e2)")
	return nil
}

// Fig9 reproduces the pruning trade-off (Section 7.1): optimized latency
// versus optimization cost for r in {1,2,3} and s in {3,8} on Inception V3
// and NasNet.
func Fig9(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	nets := []struct {
		name  string
		build models.Builder
	}{
		{"Inception V3", models.InceptionV3},
		{"NasNet", models.NasNetA},
	}
	if c.Quick {
		nets[0] = struct {
			name  string
			build models.Builder
		}{"SqueezeNet", models.SqueezeNet}
		nets[1] = struct {
			name  string
			build models.Builder
		}{"Inception-E", models.InceptionE}
	}
	t := report.NewTable(fmt.Sprintf("Figure 9: pruning trade-off on %s, batch %d", c.Device.Name, c.Batch),
		"network", "pruning", "latency ms", "search s", "#(S,S')", "measurements")
	for _, net := range nets {
		g := net.build(c.Batch)
		for _, s := range []int{8, 3} {
			for _, r := range []int{3, 2, 1} {
				opts := c.Opts
				opts.Pruning = core.Pruning{R: r, S: s}
				// A fresh, memo-less search, not the run's caches:
				// the measurements column counts a cold search's cost.
				prof := profile.New(c.Device)
				res, err := core.OptimizeContext(ctx, g, prof, opts)
				if err != nil {
					return err
				}
				lat, err := prof.MeasureSchedule(res.Schedule)
				if err != nil {
					return err
				}
				t.AddRow(net.name, opts.Pruning.String(), 1e3*lat,
					res.Stats.WallTime.Seconds(), res.Stats.Transitions, res.Stats.Measurements)
			}
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "(smaller r and s cut the search cost at mildly higher latency — Figure 9's trade-off)")
	return nil
}
