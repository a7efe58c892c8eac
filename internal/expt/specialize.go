package expt

import (
	"context"
	"fmt"
	"io"

	"ios/internal/graph"
	"ios/internal/models"
	"ios/internal/plan"
	"ios/internal/report"
)

// SpecializeRow is one batch-specialization record (experiment
// "specialize"): a network's full cross-batch latency and penalty
// matrices — the schedule specialized at batch i measured at batch j,
// the shape of the paper's Table 3 — produced by the internal/plan sweep
// (one search per batch, in order, through the run's caches).
// DiagonalWins asserts the paper's headline property: in every column
// (execution batch), the specialized schedule is at least as fast as any
// reused one.
type SpecializeRow struct {
	Network string
	Ops     int
	Batches []int
	// LatencyMS[i][j] is the latency (ms) of the schedule optimized for
	// Batches[i] executed at Batches[j]; Penalty[i][j] divides it by the
	// column's specialized (diagonal) latency.
	LatencyMS [][]float64
	Penalty   [][]float64
	// DiagonalWins reports that every column's minimum sits on the
	// diagonal (it must always be true; false indicates either a search
	// or a measurement-consistency bug).
	DiagonalWins bool
}

// specializeNets returns the networks the specialization study sweeps:
// the paper's Table 3 subject (Inception V3) plus NasNet-A, whose deeply
// repeated cells make it the most specialization-sensitive benchmark;
// Quick mode keeps only the Inception E block.
func specializeNets(c Config) (names []string, builders []models.Builder) {
	if c.Quick {
		return []string{"Inception E block"}, []models.Builder{models.InceptionE}
	}
	return []string{"Inception V3", "NasNet-A"}, []models.Builder{models.InceptionV3, models.NasNetA}
}

// SpecializeRows runs the cross-batch specialization sweep. An empty
// batches slice selects the paper's Table 3 set (1, 32, 128).
func SpecializeRows(ctx context.Context, c Config, batches []int) ([]SpecializeRow, error) {
	c = c.withDefaults()
	if len(batches) == 0 {
		batches = append([]int(nil), Table3Batches...)
	}
	names, builders := specializeNets(c)
	var rows []SpecializeRow
	for k, build := range builders {
		p, err := c.buildPlan(ctx, build(1), batches)
		if err != nil {
			return nil, fmt.Errorf("expt: specialize %s: %w", names[k], err)
		}
		row := SpecializeRow{
			Network:      names[k],
			Ops:          len(p.Points[0].Graph.SchedulableNodes()),
			Batches:      p.Batches(),
			DiagonalWins: p.DiagonalWins() == nil,
		}
		row.LatencyMS, row.Penalty = p.Matrices()
		rows = append(rows, row)
	}
	return rows, nil
}

// buildPlan runs the internal/plan sweep of g over batches on the
// configured device and options. Every search and cross-measurement of
// the sweep goes through the run's measurement memo and block cache.
func (c Config) buildPlan(ctx context.Context, g *graph.Graph, batches []int) (*plan.Plan, error) {
	return plan.Build(ctx, plan.BuildConfig{
		Graph:       g,
		Batches:     batches,
		Device:      c.Device.Name,
		Opts:        c.Opts.WithBlockCache(c.caches.blocks),
		NewProfiler: c.profiler(c.Device).Fork,
	})
}

// addExecutedRows adds one row per planned batch to t, the batch a
// schedule is executed at: the latency in ms of every point's schedule at
// that batch, so each column is one optimized-for batch (p.Latency
// transposed, as Table 3 and Figure 10 print it).
func addExecutedRows(t *report.Table, p *plan.Plan) {
	for j, execB := range p.Batches() {
		row := []interface{}{fmt.Sprintf("batch %d", execB)}
		for i := range p.Points {
			row = append(row, 1e3*p.Latency[i][j])
		}
		t.AddRow(row...)
	}
}

// Specialize renders the SpecializeRows tables (experiment id
// "specialize") at the paper's Table 3 batch set, and fails after
// printing a network whose specialized schedule lost a column.
func Specialize(ctx context.Context, c Config, w io.Writer) error {
	c = c.withDefaults()
	rows, err := SpecializeRows(ctx, c, nil)
	if err != nil {
		return err
	}
	for _, r := range rows {
		head := []string{"optimized \\ executed at"}
		for _, b := range r.Batches {
			head = append(head, fmt.Sprintf("b%d", b))
		}
		t := report.NewTable(fmt.Sprintf("Batch specialization, %s on %s (latency ms)",
			r.Network, c.Device.Name), head...)
		for i, b := range r.Batches {
			cells := []interface{}{fmt.Sprintf("batch %d", b)}
			for j := range r.Batches {
				cells = append(cells, r.LatencyMS[i][j])
			}
			t.AddRow(cells...)
		}
		t.Render(w)
		fmt.Fprintf(w, "(diagonal wins every column: %v)\n\n", r.DiagonalWins)
		if !r.DiagonalWins {
			return fmt.Errorf("expt: specialize %s: a reused schedule beat the specialized one (search or measurement-consistency bug)", r.Network)
		}
	}
	return nil
}
