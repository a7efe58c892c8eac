// Package plan is the batch-specialization subsystem: it turns the
// paper's Table 3 observation — a schedule tuned for one batch size loses
// real throughput when reused at another — into a first-class serving
// artifact. A Plan holds one specialized schedule per batch size of a
// sweep, together with the measured cross-batch latency matrix (schedule
// specialized at batch i, executed at batch j), so a serving tier can
// route a request at an unplanned batch to the nearest specialized
// schedule and report the measured penalty of that reuse instead of a
// guess. Build runs the sweep (one search per batch, in order, sharing
// one measurement cache); Save/Load persist plans as JSON for warm
// restarts.
package plan

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"ios/internal/core"
	"ios/internal/graph"
	"ios/internal/profile"
	"ios/internal/report"
	"ios/internal/schedule"
)

// Point is one sweep point of a Plan: the graph instantiated at a batch
// size and the schedule specialized for it.
type Point struct {
	// Batch is the input batch size this point specializes.
	Batch int
	// Graph is the computation graph at Batch.
	Graph *graph.Graph
	// Schedule is the IOS schedule optimized at Batch (bound to Graph).
	Schedule *schedule.Schedule
	// Latency is the schedule's measured latency at its own batch size in
	// seconds — the diagonal of the plan's latency matrix.
	Latency float64
}

// Plan is a batch-specialization plan: specialized schedules for an
// ascending sweep of batch sizes plus the measured cross-batch latency
// matrix, reproducing the shape of the paper's Table 3 for one (model,
// device, options) configuration.
type Plan struct {
	// Model names the planned graph (Graph.Name, or the zoo's canonical
	// model name when built by the serving tier).
	Model string
	// Device is the canonical device name the sweep measured on.
	Device string
	// Opts is the search-options fingerprint (core.Options.Fingerprint)
	// every point was optimized under.
	Opts string
	// Points are the sweep points in ascending Batch order.
	Points []Point
	// Latency is the cross-batch matrix: Latency[i][j] is the latency in
	// seconds of Points[i].Schedule transferred (by node name) onto the
	// graph at Points[j].Batch. The diagonal is the specialized latency;
	// off-diagonal entries measure the cost of reusing a schedule at a
	// batch it was not tuned for.
	Latency [][]float64
}

// Batches returns the planned batch sizes in ascending order.
func (p *Plan) Batches() []int {
	out := make([]int, len(p.Points))
	for i, pt := range p.Points {
		out[i] = pt.Batch
	}
	return out
}

// Index returns the point index holding exactly batch, or -1.
func (p *Plan) Index(batch int) int {
	for i, pt := range p.Points {
		if pt.Batch == batch {
			return i
		}
	}
	return -1
}

// Nearest returns the index of the point whose batch is closest to batch;
// ties prefer the smaller planned batch (deterministic routing). The plan
// must have at least one point.
func (p *Plan) Nearest(batch int) int {
	best, bestDist := 0, math.MaxInt
	for i, pt := range p.Points {
		d := pt.Batch - batch
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// Penalty returns the measured reuse penalty Latency[i][j] / Latency[j][j]:
// how much slower point i's schedule runs at batch j than the schedule
// specialized for j. The diagonal is 1 by construction.
func (p *Plan) Penalty(i, j int) float64 {
	if p.Latency[j][j] == 0 {
		return 1
	}
	return p.Latency[i][j] / p.Latency[j][j]
}

// Matrices returns the cross-batch matrices as reports show them: the
// latency matrix in milliseconds and the penalty matrix, Penalty(i, j) at
// [i][j].
func (p *Plan) Matrices() (latencyMS, penalty [][]float64) {
	n := len(p.Points)
	latencyMS, penalty = make([][]float64, n), make([][]float64, n)
	for i := range latencyMS {
		latencyMS[i], penalty[i] = make([]float64, n), make([]float64, n)
		for j := 0; j < n; j++ {
			latencyMS[i][j] = 1e3 * p.Latency[i][j]
			penalty[i][j] = p.Penalty(i, j)
		}
	}
	return latencyMS, penalty
}

// EstimatePenalty estimates the penalty of serving batch with point i's
// schedule. At a planned batch it equals Penalty(i, ·) exactly; between
// planned batches both the point's latency row and the specialized
// diagonal are linearly interpolated over batch size and the estimate is
// their ratio; outside the planned range the nearest measured value is
// used (constant extrapolation). In particular, a batch below the
// smallest planned point clamps to that point's column — so against a
// plan whose sweep starts at 8, EstimatePenalty(0, 1) is exactly
// Penalty(0, 0) = 1: the matrix has no measurements below batch 8 and
// the model cannot see whatever penalty really accrues there. The same
// holds above the largest planned batch. The estimate derives entirely
// from the plan's measured matrix — no simulation happens.
func (p *Plan) EstimatePenalty(i int, batch int) float64 {
	row := func(j int) float64 { return p.Latency[i][j] }
	diag := func(j int) float64 { return p.Latency[j][j] }
	lat := p.interp(row, batch)
	spec := p.interp(diag, batch)
	if spec == 0 {
		return 1
	}
	return lat / spec
}

// interp linearly interpolates a per-point value over batch size,
// clamping outside the planned range.
func (p *Plan) interp(val func(int) float64, batch int) float64 {
	n := len(p.Points)
	if batch <= p.Points[0].Batch {
		return val(0)
	}
	if batch >= p.Points[n-1].Batch {
		return val(n - 1)
	}
	hi := sort.Search(n, func(j int) bool { return p.Points[j].Batch >= batch })
	lo := hi - 1
	b0, b1 := p.Points[lo].Batch, p.Points[hi].Batch
	t := float64(batch-b0) / float64(b1-b0)
	return val(lo)*(1-t) + val(hi)*t
}

// Route resolves a requested batch size against the plan: the point to
// serve it with, the recorded reuse penalty (1 for an exactly planned
// batch; otherwise the matrix-derived EstimatePenalty of the nearest
// point), and whether the batch was planned exactly. Requests outside
// the planned range clamp to the end points: a batch below the smallest
// planned batch routes to that smallest point and — because the penalty
// estimate clamps with it (see EstimatePenalty) — reports penalty 1.0
// even though the serving tier still rebinds and measures the schedule
// at the requested batch. Callers wanting honest penalties at the
// extremes should plan sweep points covering their traffic range (see
// SuggestBatches).
func (p *Plan) Route(batch int) (pt *Point, penalty float64, exact bool) {
	if i := p.Index(batch); i >= 0 {
		return &p.Points[i], 1, true
	}
	i := p.Nearest(batch)
	return &p.Points[i], p.EstimatePenalty(i, batch), false
}

// Validate checks the plan's structural invariants: at least one point,
// strictly ascending positive batches, every schedule bound to its
// point's graph (with the graph instantiated at the point's batch), and a
// square latency matrix of finite non-negative entries whose diagonal
// matches the points' recorded latencies.
func (p *Plan) Validate() error {
	if len(p.Points) == 0 {
		return fmt.Errorf("plan: no points")
	}
	for i, pt := range p.Points {
		if pt.Batch < 1 {
			return fmt.Errorf("plan: point %d has batch %d (must be >= 1)", i, pt.Batch)
		}
		if i > 0 && pt.Batch <= p.Points[i-1].Batch {
			return fmt.Errorf("plan: batches not strictly ascending at point %d (%d after %d)", i, pt.Batch, p.Points[i-1].Batch)
		}
		if pt.Graph == nil || pt.Schedule == nil {
			return fmt.Errorf("plan: point %d (batch %d) missing graph or schedule", i, pt.Batch)
		}
		if got := pt.Graph.Batch(); got != pt.Batch {
			return fmt.Errorf("plan: point %d graph has batch %d, want %d", i, got, pt.Batch)
		}
		if pt.Schedule.Graph != pt.Graph {
			return fmt.Errorf("plan: point %d (batch %d) schedule is bound to a different graph", i, pt.Batch)
		}
		if err := pt.Schedule.Validate(); err != nil {
			return fmt.Errorf("plan: point %d (batch %d): %w", i, pt.Batch, err)
		}
	}
	n := len(p.Points)
	if len(p.Latency) != n {
		return fmt.Errorf("plan: latency matrix has %d rows, want %d", len(p.Latency), n)
	}
	for i, row := range p.Latency {
		if len(row) != n {
			return fmt.Errorf("plan: latency row %d has %d columns, want %d", i, len(row), n)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("plan: latency[%d][%d] = %v invalid", i, j, v)
			}
		}
		if p.Latency[i][i] != p.Points[i].Latency {
			return fmt.Errorf("plan: point %d latency %v disagrees with matrix diagonal %v", i, p.Points[i].Latency, p.Latency[i][i])
		}
	}
	return nil
}

// diagEps absorbs float summation-order noise when comparing measured
// latencies of different schedules: the DP guarantees the specialized
// schedule is optimal in exact arithmetic, so only last-ulp ties need
// slack.
const diagEps = 1e-9

// DiagonalWins verifies the specialization property the paper's Table 3
// demonstrates: in every column j (execution batch), the specialized
// schedule's latency Latency[j][j] is no worse than any reused schedule's
// Latency[i][j]. It returns a descriptive error for the first violation.
func (p *Plan) DiagonalWins() error {
	for j := range p.Points {
		spec := p.Latency[j][j]
		for i := range p.Points {
			if spec > p.Latency[i][j]*(1+diagEps) {
				return fmt.Errorf(
					"plan: specialized latency at batch %d (%.6gs) exceeds schedule-from-batch-%d reuse (%.6gs)",
					p.Points[j].Batch, spec, p.Points[i].Batch, p.Latency[i][j])
			}
		}
	}
	return nil
}

// Render writes the plan's latency and penalty matrices as text tables.
func (p *Plan) Render(w io.Writer) {
	batches := p.Batches()
	head := make([]string, 0, len(batches)+1)
	head = append(head, "optimized \\ executed at")
	for _, b := range batches {
		head = append(head, fmt.Sprintf("b%d", b))
	}
	lat := report.NewTable(fmt.Sprintf("batch plan %s on %s (%s): latency ms", p.Model, p.Device, p.Opts), head...)
	pen := report.NewTable("reuse penalty (row schedule at column batch / column's specialized schedule)", head...)
	for i, b := range batches {
		latRow := []interface{}{fmt.Sprintf("batch %d", b)}
		penRow := []interface{}{fmt.Sprintf("batch %d", b)}
		for j := range batches {
			latRow = append(latRow, 1e3*p.Latency[i][j])
			penRow = append(penRow, p.Penalty(i, j))
		}
		lat.AddRow(latRow...)
		pen.AddRow(penRow...)
	}
	lat.Render(w)
	fmt.Fprintln(w, "(each column's minimum should sit on the diagonal: specialization wins)")
	fmt.Fprintln(w)
	pen.Render(w)
}

// BuildConfig configures Build.
type BuildConfig struct {
	// Graph is the architecture to specialize; its own batch size is
	// irrelevant (every point rebuilds it with Graph.WithBatch).
	Graph *graph.Graph
	// Batches are the sweep's batch sizes (deduplicated and sorted by
	// Build; all must be >= 1).
	Batches []int
	// Device is the canonical device name recorded in the plan.
	Device string
	// Opts configures every point's search (canonicalized and validated
	// by Build). The sweep runs one search per batch, in order, so
	// Opts.Workers is its only parallelism setting.
	Opts core.Options
	// NewProfiler returns a profiler for one search, or for measuring the
	// matrix. Have every returned profiler share one measurement cache
	// (e.g. forks of a common root) so the sweep deduplicates repeated
	// structure across its points.
	NewProfiler func() *profile.Profiler
	// Progress, when set, receives each search's progress snapshots, one
	// search after another.
	Progress func(core.Progress)
}

// Build runs a batch-specialization sweep: one IOS search per batch, in
// order, then the full cross-batch matrix — every specialized schedule
// transferred (Schedule.Transfer) onto every batch's graph and measured
// on one profiler. A cancelled ctx stops the sweep and returns the
// wrapped ctx.Err().
func Build(ctx context.Context, cfg BuildConfig) (*Plan, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("plan: nil graph")
	}
	if cfg.NewProfiler == nil {
		return nil, fmt.Errorf("plan: BuildConfig.NewProfiler is required")
	}
	batches, err := normalizeBatches(cfg.Batches)
	if err != nil {
		return nil, err
	}
	opts := cfg.Opts.Canonical()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Model: cfg.Graph.Name, Device: cfg.Device, Opts: opts.Fingerprint()}
	for _, b := range batches {
		g, err := cfg.Graph.WithBatch(b)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		res, err := core.OptimizeWithProgress(ctx, g, cfg.NewProfiler(), opts, cfg.Progress)
		if err != nil {
			return nil, fmt.Errorf("plan: optimize batch %d: %w", b, err)
		}
		p.Points = append(p.Points, Point{Batch: b, Graph: g, Schedule: res.Schedule})
	}

	// The cross-batch matrix, one execution batch (column) at a time so
	// the profiler lowers each graph once. Graph.WithBatch keeps node
	// names, so a row's off-diagonal entries measure exactly the reuse a
	// nearest-batch serving tier performs.
	prof := cfg.NewProfiler()
	p.Latency = make([][]float64, len(p.Points))
	for i := range p.Latency {
		p.Latency[i] = make([]float64, len(p.Points))
	}
	for j, at := range p.Points {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("plan: sweep cancelled: %w", err)
		}
		for i, from := range p.Points {
			s, err := from.Schedule.Transfer(at.Graph)
			if err != nil {
				return nil, fmt.Errorf("plan: transfer batch-%d schedule to batch %d: %w", from.Batch, at.Batch, err)
			}
			if p.Latency[i][j], err = prof.MeasureSchedule(s); err != nil {
				return nil, fmt.Errorf("plan: measure batch-%d schedule at batch %d: %w", from.Batch, at.Batch, err)
			}
		}
		p.Points[j].Latency = p.Latency[j][j]
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// normalizeBatches validates, deduplicates, and sorts a batch sweep.
func normalizeBatches(batches []int) ([]int, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("plan: empty batch sweep")
	}
	seen := make(map[int]bool, len(batches))
	out := make([]int, 0, len(batches))
	for _, b := range batches {
		if b < 1 {
			return nil, fmt.Errorf("plan: batch size must be >= 1, got %d", b)
		}
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	sort.Ints(out)
	return out, nil
}
