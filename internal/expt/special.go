package expt

import (
	"context"
	"fmt"
	"io"

	"ios/internal/gpusim"
	"ios/internal/models"
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
	p, err := c.buildPlan(ctx, build(1), Table3Batches)
	if err != nil {
		return err
	}
	t1 := report.NewTable(fmt.Sprintf("Table 3 (1): batch-size specialization, Inception V3 on %s (latency ms)", c.Device.Name),
		"execute \\ optimized for", "1", "32", "128")
	addExecutedRows(t1, p)
	t1.Render(w)
	fmt.Fprintln(w, "(each row's minimum should sit on the diagonal)")
	fmt.Fprintln(w)

	// (2) Device specialization at batch one.
	devices := []gpusim.Spec{gpusim.TeslaK80, gpusim.TeslaV100}
	schedByDev := make(map[string]*schedule.Schedule)
	g := build(c.Batch)
	for _, dev := range devices {
		dc := c
		dc.Device = dev
		res, err := dc.optimize(ctx, g, c.Opts.Strategies)
		if err != nil {
			return err
		}
		schedByDev[dev.Name] = res.Schedule
	}
	t2 := report.NewTable("Table 3 (2): device specialization, Inception V3, batch 1 (latency ms)",
		"execute \\ optimized for", devices[0].Name, devices[1].Name)
	for _, execDev := range devices {
		ec := c
		ec.Device = execDev
		row := []interface{}{execDev.Name}
		for _, optDev := range devices {
			lat, err := ec.measureSchedule(schedByDev[optDev.Name])
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

// Fig10 prints the schedule IOS finds for the last block of Inception V3
// at batch 1 and at batch 32 (Section 7.2's qualitative study: the batch-32
// schedule merges the 1x3/3x1 pair and uses more stages), then
// cross-executes them.
func Fig10(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	p, err := c.buildPlan(ctx, models.InceptionE(1), []int{1, 32})
	if err != nil {
		return err
	}
	for _, pt := range p.Points {
		fmt.Fprintf(w, "— schedule optimized for batch %d (%d stages) —\n", pt.Batch, pt.Schedule.NumStages())
		fmt.Fprint(w, pt.Schedule.String())
		merges := 0
		for _, st := range pt.Schedule.Stages {
			if st.Strategy == schedule.Merge {
				merges++
			}
		}
		fmt.Fprintf(w, "  (%d merge stages)\n\n", merges)
	}
	t := report.NewTable(fmt.Sprintf("Figure 10 cross-execution on %s (latency ms)", c.Device.Name),
		"execute \\ optimized for", "batch 1", "batch 32")
	addExecutedRows(t, p)
	t.Render(w)
	return nil
}
