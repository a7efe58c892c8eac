package ios_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"ios"
	"ios/internal/profile"
)

// TestOptimizeBatches: the sweep produces one specialized schedule per
// batch — each bit-identical to a standalone Optimize at that batch under
// the same per-call options, pruned or not — and a measured matrix whose
// diagonal wins every column.
func TestOptimizeBatches(t *testing.T) {
	ctx := context.Background()
	eng := ios.NewEngine(ios.V100)
	g := ios.Figure2Block(1)
	batches := []int{1, 2, 8}

	p, err := eng.OptimizeBatches(ctx, g, batches, ios.Options{})
	if err != nil {
		t.Fatalf("OptimizeBatches: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if got := p.Batches(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("plan batches = %v", got)
	}
	if p.Device != ios.V100.Name {
		t.Errorf("plan device = %q", p.Device)
	}
	if err := p.DiagonalWins(); err != nil {
		t.Errorf("specialization property violated: %v", err)
	}

	// Each sweep point must match a standalone search at its batch.
	for i, b := range p.Batches() {
		want, err := eng.Optimize(ctx, ios.Figure2Block(b), ios.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Points[i].Schedule.String() != want.Schedule.String() {
			t.Errorf("batch %d: sweep schedule differs from standalone Optimize:\n%s\nvs\n%s",
				b, p.Points[i].Schedule, want.Schedule)
		}
		// The diagonal is the specialized schedule's measured latency.
		lat, err := eng.Measure(ctx, p.Points[i].Graph, p.Points[i].Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if lat != p.Points[i].Latency {
			t.Errorf("batch %d: diagonal %g, independent Measure %g", b, p.Points[i].Latency, lat)
		}
	}

	// Routing: exact, nearest, and the recorded penalty.
	if pt, pen, exact := p.Route(2); !exact || pt.Batch != 2 || pen != 1 {
		t.Errorf("Route(2) = (%d, %v, %v)", pt.Batch, pen, exact)
	}
	if pt, _, exact := p.Route(7); exact || pt.Batch != 8 {
		t.Errorf("Route(7) = batch %d exact=%v, want nearest 8", pt.Batch, exact)
	}

	// Round trip through the public Load helpers.
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ios.LoadBatchPlan(&buf)
	if err != nil {
		t.Fatalf("LoadBatchPlan: %v", err)
	}
	if q.Points[2].Schedule.String() != p.Points[2].Schedule.String() {
		t.Error("schedule changed across plan round trip")
	}

	// The per-call options reach every point: an unpruned sweep records
	// its own options and searches each batch exhaustively.
	u, err := eng.OptimizeBatches(ctx, g, batches, ios.Unpruned)
	if err != nil {
		t.Fatalf("unpruned OptimizeBatches: %v", err)
	}
	if u.Opts == p.Opts {
		t.Errorf("unpruned sweep records the default options %q", u.Opts)
	}
	for i, b := range u.Batches() {
		want, err := eng.Optimize(ctx, ios.Figure2Block(b), ios.Unpruned)
		if err != nil {
			t.Fatal(err)
		}
		if u.Points[i].Schedule.String() != want.Schedule.String() {
			t.Errorf("batch %d: unpruned sweep schedule differs from a standalone unpruned Optimize:\n%s\nvs\n%s",
				b, u.Points[i].Schedule, want.Schedule)
		}
	}
}

func TestOptimizeBatchesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := ios.NewEngine(ios.V100)
	if _, err := eng.OptimizeBatches(ctx, ios.Figure2Block(1), []int{1, 2}, ios.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled OptimizeBatches = %v, want context.Canceled", err)
	}
}

func TestOptimizeBatchesRejectsBadSweep(t *testing.T) {
	ctx := context.Background()
	eng := ios.NewEngine(ios.V100)
	if _, err := eng.OptimizeBatches(ctx, ios.Figure2Block(1), nil, ios.Options{}); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := eng.OptimizeBatches(ctx, ios.Figure2Block(1), []int{1, -4}, ios.Options{}); err == nil {
		t.Error("negative batch accepted")
	}
}

// TestMeasureCrossBatchError: the regression test for adoptSchedule — a
// schedule optimized at one batch size measured against another must fail
// with an error naming both batches, not silently rebind by node name.
func TestMeasureCrossBatchError(t *testing.T) {
	ctx := context.Background()
	eng := ios.NewEngine(ios.V100)
	g1 := ios.Figure2Block(1)
	res, err := eng.Optimize(ctx, g1, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g32 := ios.Figure2Block(32)
	_, err = eng.Measure(ctx, g32, res.Schedule)
	if err == nil {
		t.Fatal("cross-batch Measure succeeded; want a batch-mismatch error")
	}
	for _, want := range []string{"batch 1", "batch 32"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("cross-batch error %q does not name %q", err, want)
		}
	}
	// Throughput routes through the same validation.
	if _, err := eng.Throughput(ctx, g32, res.Schedule); err == nil {
		t.Error("cross-batch Throughput succeeded")
	}
}

// TestThroughputUnits pins the unit contract end to end: gpusim latencies
// are seconds (internal/gpusim/sim.go), Engine.Measure sums them over the
// schedule's stages, and Throughput is exactly images/sec =
// batch / latency.
func TestThroughputUnits(t *testing.T) {
	ctx := context.Background()
	const batch = 8
	eng := ios.NewEngine(ios.V100)
	g := ios.Figure2Block(batch)
	res, err := eng.Optimize(ctx, g, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Hand-compute the latency: the per-stage sum of simulator seconds.
	prof := profile.New(ios.V100)
	var want float64
	for _, st := range res.Schedule.Stages {
		lat, err := prof.MeasureStage(st)
		if err != nil {
			t.Fatal(err)
		}
		want += lat
	}
	if want <= 0 {
		t.Fatalf("hand-computed latency = %g, want > 0", want)
	}
	// A V100 executes this small block in far less than a second but more
	// than a microsecond: a unit slip (ms instead of s) would fail this.
	if want > 1 || want < 1e-6 {
		t.Fatalf("latency %g out of plausible seconds range", want)
	}

	lat, err := eng.Measure(ctx, g, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if lat != want {
		t.Fatalf("Engine.Measure = %g, hand-computed stage sum = %g", lat, want)
	}
	thr, err := eng.Throughput(ctx, g, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := thr, float64(batch)/lat; got != exp {
		t.Fatalf("Throughput = %g images/sec, want batch/latency = %g", got, exp)
	}
}

// TestServeThroughputAgreesWithEngine: the serving tier's Throughput
// field is the same quantity Engine.Throughput computes for the same
// schedule and batch.
func TestServeThroughputAgreesWithEngine(t *testing.T) {
	ctx := context.Background()
	const batch = 4
	srv := httptest.NewServer(ios.NewServer(ios.ServerConfig{}))
	defer srv.Close()

	body, err := json.Marshal(ios.OptimizeRequest{Model: "squeezenet", Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ios.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Throughput <= 0 {
		t.Fatalf("served throughput = %g", out.Throughput)
	}

	g := ios.SqueezeNet(batch)
	sched, err := ios.LoadSchedule(out.Schedule, g)
	if err != nil {
		t.Fatalf("reload served schedule: %v", err)
	}
	eng := ios.NewEngine(ios.V100)
	thr, err := eng.Throughput(ctx, g, sched)
	if err != nil {
		t.Fatal(err)
	}
	if thr != out.Throughput {
		t.Fatalf("engine throughput %g != served throughput %g", thr, out.Throughput)
	}
	// Both are batch / the served latency (ms → s).
	if exp := float64(batch) / (out.LatencyMS / 1e3); relDiff(out.Throughput, exp) > 1e-12 {
		t.Fatalf("served throughput %g inconsistent with its own latency (%g)", out.Throughput, exp)
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b < 0 {
		b = -b
	}
	if b == 0 {
		return d
	}
	return d / b
}
