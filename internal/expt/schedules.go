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
	"ios/internal/report"
	"ios/internal/schedule"
)

// SchedulePolicies is the Figure 6/14 legend order.
var SchedulePolicies = []string{"Sequential", "Greedy", "IOS-Merge", "IOS-Parallel", "IOS-Both"}

// Fig6 compares the five schedules of Section 6.1 across the benchmark
// CNNs on the configured device (batch one by default) and renders
// normalized throughput, reproducing Figure 6.
func Fig6(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	return scheduleComparison(ctx, c, w, fmt.Sprintf("Figure 6: schedules on %s, batch %d", c.Device.Name, c.Batch))
}

// Fig14 is Figure 6 on the RTX 2080Ti (Appendix B).
func Fig14(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	c.Device = gpusim.RTX2080Ti
	return scheduleComparison(ctx, c, w, fmt.Sprintf("Figure 14: schedules on %s, batch %d", c.Device.Name, c.Batch))
}

func scheduleComparison(ctx context.Context, c Config, w io.Writer, title string) error {
	names, graphs := c.benchmarks()
	chart := report.NewBarChart(title, SchedulePolicies...)
	perPolicy := make(map[string][]float64)
	for i, g := range graphs {
		values := make([]float64, len(SchedulePolicies))
		for j, policy := range SchedulePolicies {
			lat, _, err := c.latencyOf(ctx, g, policy)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", names[i], policy, err)
			}
			values[j] = float64(c.Batch) / lat // throughput
		}
		chart.AddGroup(names[i], values...)
		best := 0.0
		for _, v := range values {
			if v > best {
				best = v
			}
		}
		for j, policy := range SchedulePolicies {
			perPolicy[policy] = append(perPolicy[policy], values[j]/best)
		}
	}
	geo := make([]float64, len(SchedulePolicies))
	for j, policy := range SchedulePolicies {
		geo[j] = report.GeoMean(perPolicy[policy])
	}
	chart.AddGroup("GeoMean", geo...)
	chart.Render(w)
	return nil
}

// Fig2 reproduces the running example: the sequential, greedy, and IOS
// schedules of the Figure 2 block with per-stage GFLOPs, achieved TFLOP/s,
// and device utilization.
func Fig2(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	g := models.Figure2Block(c.Batch)
	prof := c.profiler(c.Device)

	seq, err := baseline.Sequential(g)
	if err != nil {
		return err
	}
	grd, err := baseline.Greedy(g)
	if err != nil {
		return err
	}
	res, err := c.search(ctx, g, prof, c.Opts)
	if err != nil {
		return err
	}
	for _, entry := range []struct {
		name string
		s    *schedule.Schedule
	}{{"Sequential", seq}, {"Greedy", grd}, {"IOS", res.Schedule}} {
		t := report.NewTable(fmt.Sprintf("Figure 2 (%s) on %s", entry.name, c.Device.Name),
			"stage", "ops", "GFLOPs", "TFLOP/s", "util %", "latency ms")
		var total, flops float64
		var utilSum float64
		for i, st := range entry.s.Stages {
			p, err := prof.ProfileStage(st)
			if err != nil {
				return err
			}
			total += p.Latency
			flops += p.GFLOPs
			utilSum += p.Utilization * p.Latency
			t.AddRow(i+1, stageOpsString(st), p.GFLOPs, p.TFLOPSs, 100*p.Utilization, 1e3*p.Latency)
		}
		t.AddRow("total", "", flops, flops/total/1e3, 100*utilSum/total, 1e3*total)
		t.Render(w)
		fmt.Fprintln(w)
	}
	return nil
}

func stageOpsString(st schedule.Stage) string {
	s := ""
	for i, grp := range st.Groups {
		if i > 0 {
			s += " | "
		}
		for j, n := range grp {
			if j > 0 {
				s += ","
			}
			s += n.Name
		}
	}
	return s
}

// Fig8 reproduces the active-warp study (Section 6.3): it executes the
// Figure 2 model repeatedly under the sequential and the IOS schedule,
// samples resident warps CUPTI-style, and reports the mean active-warp
// ratio (the paper measures 1.58x).
func Fig8(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	g := models.Figure2Block(c.Batch)
	prof := c.profiler(c.Device)
	seq, err := baseline.Sequential(g)
	if err != nil {
		return err
	}
	res, err := c.search(ctx, g, prof, c.Opts)
	if err != nil {
		return err
	}
	_, seqTrace, err := prof.TraceSchedule(seq)
	if err != nil {
		return err
	}
	_, iosTrace, err := prof.TraceSchedule(res.Schedule)
	if err != nil {
		return err
	}
	seqRate := seqTrace.WarpSeconds() / seqTrace.Duration() // warps (avg resident)
	iosRate := iosTrace.WarpSeconds() / iosTrace.Duration()
	t := report.NewTable(fmt.Sprintf("Figure 8: active warps on %s", c.Device.Name),
		"schedule", "mean active warps", "duration ms", "warps/ms (1e3)")
	t.AddRow("Sequential", seqRate, 1e3*seqTrace.Duration(), seqRate/1e3)
	t.AddRow("IOS", iosRate, 1e3*iosTrace.Duration(), iosRate/1e3)
	t.Render(w)
	fmt.Fprintf(w, "IOS achieves %.2fx the sequential schedule's active warps (paper: 1.58x)\n", iosRate/seqRate)

	// Sampled series, 40 windows like the paper's timeline plot.
	period := seqTrace.Duration() / 40
	fmt.Fprintln(w, "sampled warp-seconds per window (seq | ios):")
	sseq, sios := seqTrace.Sample(period), iosTrace.Sample(period)
	for i := 0; i < len(sseq) || i < len(sios); i++ {
		var a, b float64
		if i < len(sseq) {
			a = sseq[i]
		}
		if i < len(sios) {
			b = sios[i]
		}
		fmt.Fprintf(w, "  %2d  %10.4g  %10.4g\n", i, a, b)
	}
	return nil
}

// Fig16 compares IOS against the sequential schedule per Inception V3
// block (Appendix C): later blocks have more width and speed up more.
func Fig16(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	g := models.InceptionV3(c.Batch)
	blocks, err := g.Partition(0)
	if err != nil {
		return err
	}
	prof := c.profiler(c.Device)
	opts := c.Opts.WithBlockCache(c.caches.blocks)
	t := report.NewTable(fmt.Sprintf("Figure 16: per-block speedup, Inception V3 on %s", c.Device.Name),
		"block", "ops", "width", "seq ms", "ios ms", "speedup")
	var seqTotal, iosTotal float64
	idx := 0
	for _, b := range blocks {
		stages, _, err := core.OptimizeBlockContext(ctx, b, prof, opts)
		if err != nil {
			return err
		}
		var iosLat float64
		for _, st := range stages {
			l, err := prof.MeasureStage(st)
			if err != nil {
				return err
			}
			iosLat += l
		}
		var seqLat float64
		for _, n := range b.Nodes {
			l, err := prof.MeasureStage(schedule.Stage{Strategy: schedule.Concurrent,
				Groups: [][]*graph.Node{{n}}})
			if err != nil {
				return err
			}
			seqLat += l
		}
		seqTotal += seqLat
		iosTotal += iosLat
		if len(b.Nodes) >= 6 { // report the Inception blocks, as the paper does
			idx++
			t.AddRow(idx, len(b.Nodes), b.Width(), 1e3*seqLat, 1e3*iosLat, seqLat/iosLat)
		}
	}
	t.AddRow("all", "", "", 1e3*seqTotal, 1e3*iosTotal, seqTotal/iosTotal)
	t.Render(w)
	return nil
}

// ResNet reproduces the Section 5 remark: ResNet-34/50 have little
// inter-operator parallelism, so IOS yields only a few percent.
func ResNet(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	t := report.NewTable(fmt.Sprintf("ResNet (Section 5 remark) on %s", c.Device.Name),
		"network", "seq ms", "ios ms", "speedup")
	for _, b := range []models.Builder{models.ResNet34, models.ResNet50} {
		g := b(c.Batch)
		seqLat, _, err := c.latencyOf(ctx, g, "Sequential")
		if err != nil {
			return err
		}
		iosLat, _, err := c.latencyOf(ctx, g, "IOS")
		if err != nil {
			return err
		}
		t.AddRow(g.Name, 1e3*seqLat, 1e3*iosLat, seqLat/iosLat)
	}
	t.Render(w)
	return nil
}
