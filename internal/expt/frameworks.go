package expt

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"ios/internal/core"
	"ios/internal/frameworks"
	"ios/internal/gpusim"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/report"
)

// Fig7 compares IOS against the cuDNN-based frameworks (Section 6.2) on
// the configured device with batch one, reproducing Figure 7.
func Fig7(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	return frameworkComparison(ctx, c, w, fmt.Sprintf("Figure 7: cuDNN-based frameworks on %s, batch %d", c.Device.Name, c.Batch))
}

// Fig15 is Figure 7 on the RTX 2080Ti (Appendix B).
func Fig15(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	c.Device = gpusim.RTX2080Ti
	return frameworkComparison(ctx, c, w, fmt.Sprintf("Figure 15: cuDNN-based frameworks on %s, batch %d", c.Device.Name, c.Batch))
}

func frameworkComparison(ctx context.Context, c Config, w io.Writer, title string) error {
	names, graphs := c.benchmarks()
	series := make([]string, 0, 6)
	for _, f := range frameworks.CuDNNBaselines() {
		series = append(series, f.Name)
	}
	series = append(series, "IOS")
	chart := report.NewBarChart(title, series...)
	perSeries := make(map[string][]float64)
	for i, g := range graphs {
		values := make([]float64, 0, len(series))
		for _, f := range frameworks.CuDNNBaselines() {
			m, err := f.Measure(ctx, g, c.Device)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", names[i], f.Name, err)
			}
			values = append(values, float64(c.Batch)/m.Latency)
		}
		iosLat, _, err := c.latencyOf(ctx, g, "IOS")
		if err != nil {
			return fmt.Errorf("%s/IOS: %w", names[i], err)
		}
		values = append(values, float64(c.Batch)/iosLat)
		chart.AddGroup(names[i], values...)
		best := 0.0
		for _, v := range values {
			if v > best {
				best = v
			}
		}
		for j, s := range series {
			perSeries[s] = append(perSeries[s], values[j]/best)
		}
	}
	geo := make([]float64, len(series))
	for j, s := range series {
		geo[j] = report.GeoMean(perSeries[s])
	}
	chart.AddGroup("GeoMean", geo...)
	chart.Render(w)
	return nil
}

// Fig11BatchSizes is the batch-size sweep of Figure 11.
var Fig11BatchSizes = []int{1, 16, 32, 64, 128}

// Fig11 reproduces the throughput-versus-batch-size study (Section 7.3)
// on Inception V3: Sequential, TVM-cuDNN, TASO, TensorRT, and IOS. TASO
// runs out of GPU memory at batch 128 in the paper; the reproduction
// mirrors that as an n/a entry.
func Fig11(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	series := []string{"Sequential", "TVM-cuDNN", "TASO", "TensorRT", "IOS"}
	chart := report.NewBarChart(
		fmt.Sprintf("Figure 11: Inception V3 throughput by batch size on %s (images/sec)", c.Device.Name),
		series...)
	t := report.NewTable("Figure 11 raw throughput (images/sec)", append([]string{"batch"}, series...)...)
	for _, batch := range Fig11BatchSizes {
		g := models.InceptionV3(batch)
		bc := c
		bc.Batch = batch
		values := make([]float64, 0, len(series))
		seqLat, _, err := bc.latencyOf(ctx, g, "Sequential")
		if err != nil {
			return err
		}
		values = append(values, float64(batch)/seqLat)
		for _, f := range []frameworks.Framework{frameworks.TVMcuDNN, frameworks.TASO, frameworks.TensorRT} {
			if f.Name == "TASO" && batch >= 128 {
				// TASO exhausts GPU memory at batch 128 (Figure 11 note).
				values = append(values, math.NaN())
				continue
			}
			m, err := f.Measure(ctx, g, c.Device)
			if err != nil {
				return err
			}
			values = append(values, float64(batch)/m.Latency)
		}
		iosLat, _, err := bc.latencyOf(ctx, g, "IOS")
		if err != nil {
			return err
		}
		values = append(values, float64(batch)/iosLat)
		chart.AddGroup(fmt.Sprintf("batch %d", batch), values...)
		row := make([]interface{}, 0, len(series)+1)
		row = append(row, batch)
		for _, v := range values {
			if math.IsNaN(v) {
				row = append(row, "OOM")
			} else {
				row = append(row, v)
			}
		}
		t.AddRow(row...)
	}
	t.Render(w)
	fmt.Fprintln(w)
	chart.Render(w)
	return nil
}

// Fig12 reproduces the intra- versus inter-operator parallelism study
// (Section 7.4): TVM-AutoTune against IOS, with total optimization cost.
func Fig12(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	names, graphs := c.benchmarks()
	chart := report.NewBarChart(
		fmt.Sprintf("Figure 12: TVM-AutoTune vs IOS on %s, batch %d", c.Device.Name, c.Batch),
		"TVM-AutoTune", "IOS")
	var tvmCost, iosCost time.Duration
	perSeries := map[string][]float64{}
	for i, g := range graphs {
		m, err := frameworks.TVMAutoTune.Measure(ctx, g, c.Device)
		if err != nil {
			return err
		}
		// A fresh, memo-less search, not the run's caches: the GPU-hours
		// line prices a cold search's measurements.
		prof := profile.New(c.Device)
		res, err := core.OptimizeContext(ctx, g, prof, c.Opts)
		if err != nil {
			return err
		}
		iosLat, err := prof.MeasureSchedule(res.Schedule)
		if err != nil {
			return err
		}
		// IOS's optimization cost in "GPU time" is the simulated time the
		// profiler spent measuring candidate stages (each measured stage
		// would run warmup+repeat on real hardware; we charge 6 runs).
		iosCost += time.Duration(float64(res.Stats.Measurements) * 6 * iosLat / float64(len(res.Schedule.Stages)) * float64(time.Second))
		tvmCost += m.OptimizationCost
		vTVM, vIOS := float64(c.Batch)/m.Latency, float64(c.Batch)/iosLat
		chart.AddGroup(names[i], vTVM, vIOS)
		best := math.Max(vTVM, vIOS)
		perSeries["tvm"] = append(perSeries["tvm"], vTVM/best)
		perSeries["ios"] = append(perSeries["ios"], vIOS/best)
	}
	chart.AddGroup("GeoMean", report.GeoMean(perSeries["tvm"]), report.GeoMean(perSeries["ios"]))
	chart.Render(w)
	fmt.Fprintf(w, "total optimization cost: TVM-AutoTune %.1f GPU hours, IOS %.2f GPU hours (paper: 208 vs 3)\n",
		tvmCost.Hours(), iosCost.Hours())
	return nil
}
