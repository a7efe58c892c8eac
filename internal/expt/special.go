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
	"ios/internal/schedule"
)

// Table3Batches is the specialization batch set of Table 3 (1).
var Table3Batches = []int{1, 32, 128}

// Table3 reproduces the specialization study (Section 7.2): schedules
// optimized for one batch size / device are executed under every other,
// and the diagonal should win.
func Table3(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()

	// (1) Batch-size specialization on Inception V3.
	// Optimizing for batch b yields a stage structure; executing it at
	// batch b' measures the same structure with b'-shaped tensors.
	build := models.InceptionV3
	if c.Quick {
		build = models.InceptionE
	}
	schedByBatch := make(map[int]*schedule.Schedule)
	for _, b := range Table3Batches {
		g := build(b)
		res, err := core.OptimizeContext(ctx, g, profile.New(c.Device), c.Opts)
		if err != nil {
			return err
		}
		schedByBatch[b] = res.Schedule
	}
	t1 := report.NewTable(fmt.Sprintf("Table 3 (1): batch-size specialization, Inception V3 on %s (latency ms)", c.Device.Name),
		"execute \\ optimized for", "1", "32", "128")
	for _, execB := range Table3Batches {
		row := []interface{}{fmt.Sprintf("batch %d", execB)}
		for _, optB := range Table3Batches {
			lat, err := executeRebatched(schedByBatch[optB], build, execB, c.Device)
			if err != nil {
				return err
			}
			row = append(row, 1e3*lat)
		}
		t1.AddRow(row...)
	}
	t1.Render(w)
	fmt.Fprintln(w, "(each row's minimum should sit on the diagonal)")
	fmt.Fprintln(w)

	// (2) Device specialization at batch one.
	devices := []gpusim.Spec{gpusim.TeslaK80, gpusim.TeslaV100}
	schedByDev := make(map[string]*schedule.Schedule)
	g := build(c.Batch)
	for _, dev := range devices {
		res, err := core.OptimizeContext(ctx, g, profile.New(dev), c.Opts)
		if err != nil {
			return err
		}
		schedByDev[dev.Name] = res.Schedule
	}
	t2 := report.NewTable("Table 3 (2): device specialization, Inception V3, batch 1 (latency ms)",
		"execute \\ optimized for", devices[0].Name, devices[1].Name)
	for _, execDev := range devices {
		row := []interface{}{execDev.Name}
		for _, optDev := range devices {
			lat, err := profile.New(execDev).MeasureSchedule(schedByDev[optDev.Name])
			if err != nil {
				return err
			}
			row = append(row, 1e3*lat)
		}
		t2.AddRow(row...)
	}
	t2.Render(w)
	fmt.Fprintln(w, "(each row's minimum should sit on the diagonal)")
	return nil
}

// executeRebatched transfers a schedule found at one batch size onto the
// same architecture at another batch size (stage structure by node name)
// and measures it.
func executeRebatched(s *schedule.Schedule, build models.Builder, batch int, dev gpusim.Spec) (float64, error) {
	g := build(batch)
	data, err := s.MarshalJSON()
	if err != nil {
		return 0, err
	}
	moved, err := schedule.FromJSON(data, g)
	if err != nil {
		return 0, err
	}
	if err := moved.Validate(); err != nil {
		return 0, err
	}
	return profile.New(dev).MeasureSchedule(moved)
}

// Fig10 prints the schedule IOS finds for the last block of Inception V3
// at batch 1 and at batch 32 (Section 7.2's qualitative study: the batch-32
// schedule merges the 1x3/3x1 pair and uses more stages), then
// cross-executes them.
func Fig10(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	batches := []int{1, 32}
	scheds := make(map[int]*schedule.Schedule)
	for _, b := range batches {
		g := models.InceptionE(b)
		res, err := core.OptimizeContext(ctx, g, profile.New(c.Device), c.Opts)
		if err != nil {
			return err
		}
		scheds[b] = res.Schedule
		fmt.Fprintf(w, "— schedule optimized for batch %d (%d stages) —\n", b, res.Schedule.NumStages())
		fmt.Fprint(w, res.Schedule.String())
		merges := 0
		for _, st := range res.Schedule.Stages {
			if st.Strategy == schedule.Merge {
				merges++
			}
		}
		fmt.Fprintf(w, "  (%d merge stages)\n\n", merges)
	}
	t := report.NewTable(fmt.Sprintf("Figure 10 cross-execution on %s (latency ms)", c.Device.Name),
		"execute \\ optimized for", "batch 1", "batch 32")
	for _, execB := range batches {
		row := []interface{}{fmt.Sprintf("batch %d", execB)}
		for _, optB := range batches {
			lat, err := executeRebatched(scheds[optB], models.InceptionE, execB, c.Device)
			if err != nil {
				return err
			}
			row = append(row, 1e3*lat)
		}
		t.AddRow(row...)
	}
	t.Render(w)
	return nil
}
