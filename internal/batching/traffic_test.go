package batching

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ios/internal/plan"
)

// syntheticBatchingPlan builds a schedule-free *plan.Plan with an
// analytic measured matrix (diagonal grows sub-linearly, penalty grows
// with batch distance) — enough for the model-query methods the
// batching tier consumes.
func syntheticBatchingPlan() *plan.Plan {
	batches := []int{1, 8, 16}
	p := &plan.Plan{Model: "synthetic", Device: "dev"}
	diag := func(b int) float64 { return 1e-3 + 1e-4*float64(b) }
	p.Points = make([]plan.Point, len(batches))
	p.Latency = make([][]float64, len(batches))
	for i, bi := range batches {
		p.Points[i] = plan.Point{Batch: bi, Latency: diag(bi)}
		p.Latency[i] = make([]float64, len(batches))
		for j, bj := range batches {
			d := float64(bi - bj)
			if d < 0 {
				d = -d
			}
			p.Latency[i][j] = diag(bj) * (1 + 0.004*d)
		}
	}
	return p
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	a := PoissonArrivals(500, 1000, 42)
	b := PoissonArrivals(500, 1000, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different Poisson traces")
	}
	if c := PoissonArrivals(500, 1000, 43); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical Poisson traces")
	}
	if len(a) != 500 {
		t.Fatalf("trace length = %d, want 500", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not ascending at %d: %v < %v", i, a[i], a[i-1])
		}
	}
	// 500 arrivals at 1000/s should span roughly 0.5s.
	span := a[len(a)-1].Seconds()
	if span < 0.3 || span > 0.8 {
		t.Errorf("500 arrivals at 1000/s span %.3fs, want ~0.5s", span)
	}
	if PoissonArrivals(0, 1000, 1) != nil || PoissonArrivals(5, 0, 1) != nil {
		t.Error("degenerate Poisson inputs should return nil")
	}
}

func TestSimulateFixedBatches(t *testing.T) {
	m := testModel()
	arrivals := make([]time.Duration, 10)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * time.Millisecond
	}
	res, err := simulateFixed(m, 4, 20*time.Millisecond, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatches != 3 {
		t.Errorf("dispatches = %d, want 3 (4+4+2)", res.Dispatches)
	}
	if res.DispatchHist[4] != 2 || res.DispatchHist[2] != 1 {
		t.Errorf("histogram = %v, want map[2:1 4:2]", res.DispatchHist)
	}
	if res.Requests != 10 || res.Images != 10 {
		t.Errorf("requests/images = %d/%d, want 10/10", res.Requests, res.Images)
	}
	if _, err := simulateFixed(m, 0, time.Second, arrivals); err == nil {
		t.Error("simulateFixed accepted batch 0")
	}
}

func TestSimulateImmediate(t *testing.T) {
	m := testModel()
	arrivals := PoissonArrivals(200, 500, 1) // well under batch-1 capacity
	res, err := simulateImmediate(m, 20*time.Millisecond, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "batch1" || res.Dispatches != 200 || res.MeanBatch != 1 {
		t.Errorf("result = %+v, want 200 singleton dispatches", res)
	}
	// Under light load every request's latency is at least the batch-1
	// service time and usually not much more.
	if res.P50 < durationOf(m.EstimateLatency(1)) {
		t.Errorf("p50 %v below the batch-1 service time", res.P50)
	}
}

// TestSimulateAdaptiveDeterministic: the virtual-time simulation is a
// pure function of (config, trace).
func TestSimulateAdaptiveDeterministic(t *testing.T) {
	cfg := Config{Model: testModel(), SLO: 20 * time.Millisecond}
	arrivals := PoissonArrivals(1000, 2000, 11)
	a, err := SimulateAdaptive(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateAdaptive(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same trace produced different results:\n%+v\n%+v", a, b)
	}
	if a.Requests != 1000 || a.Images != 1000 {
		t.Errorf("requests/images = %d/%d, want 1000/1000", a.Requests, a.Images)
	}
}

// TestSimulateAdaptiveBeatsBatch1 is the package-level version of the
// benchmark's built-in assertion: under Poisson traffic offered above
// the batch-1 capacity of the model, the adaptive policy both sustains
// higher throughput than dispatch-immediately AND keeps p99 within the
// SLO, because it rides the model's batching amortization.
func TestSimulateAdaptiveBeatsBatch1(t *testing.T) {
	m := testModel() // batch-1 capacity = 1/L(1) ≈ 909 img/s
	slo := 20 * time.Millisecond
	arrivals := PoissonArrivals(2000, 2000, 3) // offered 2000 img/s

	adaptive, err := SimulateAdaptive(Config{Model: m, SLO: slo}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	batch1, err := simulateImmediate(m, slo, arrivals)
	if err != nil {
		t.Fatal(err)
	}

	if adaptive.ImagesPerSec <= batch1.ImagesPerSec {
		t.Errorf("adaptive %.0f img/s did not beat batch1 %.0f img/s",
			adaptive.ImagesPerSec, batch1.ImagesPerSec)
	}
	if adaptive.P99 > slo {
		t.Errorf("adaptive p99 %v exceeds SLO %v", adaptive.P99, slo)
	}
	if adaptive.MeanBatch <= 1.5 {
		t.Errorf("adaptive mean batch %.2f — the policy never coalesced", adaptive.MeanBatch)
	}
	// The saturated batch-1 device has unbounded queueing delay.
	if batch1.P99 <= adaptive.P99 {
		t.Errorf("batch1 p99 %v unexpectedly at or below adaptive p99 %v", batch1.P99, adaptive.P99)
	}
}

// TestSimulateAdaptiveLightLoad: far below capacity there is nothing to
// gain from batching the SLO would allow to be missed — every request
// still completes within the SLO.
func TestSimulateAdaptiveLightLoad(t *testing.T) {
	cfg := Config{Model: testModel(), SLO: 20 * time.Millisecond}
	arrivals := PoissonArrivals(300, 100, 5) // 100 img/s, capacity ~909
	res, err := SimulateAdaptive(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOViolations != 0 {
		t.Errorf("light load produced %d SLO violations, want 0", res.SLOViolations)
	}
	if res.Images != 300 {
		t.Errorf("images = %d, want all 300 served", res.Images)
	}
}

// TestSimulateHistogramFeedsSuggestBatches closes the loop the front
// end exists for: the adaptive run's dispatch histogram is a valid
// SuggestBatches input and yields sweep points inside the observed
// dispatch range.
func TestSimulateHistogramFeedsSuggestBatches(t *testing.T) {
	cfg := Config{Model: testModel(), SLO: 20 * time.Millisecond}
	res, err := SimulateAdaptive(cfg, PoissonArrivals(2000, 2000, 9))
	if err != nil {
		t.Fatal(err)
	}
	weights := make(map[int]float64, len(res.DispatchHist))
	lo, hi := 1<<30, 0
	for b, c := range res.DispatchHist {
		weights[b] = float64(c)
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	p := syntheticBatchingPlan()
	got := p.SuggestBatches(weights, 3)
	if len(got) == 0 {
		t.Fatal("SuggestBatches returned nothing from a live histogram")
	}
	for _, b := range got {
		if b < lo || b > hi {
			t.Errorf("suggested batch %d outside observed dispatch range [%d, %d]", b, lo, hi)
		}
	}
}

// simulateImmediate runs the dispatch-immediately baseline: every
// request launches alone the moment it arrives (batch 1, zero queueing
// delay, minimum device efficiency).
func simulateImmediate(model Model, slo time.Duration, arrivals []time.Duration) (SimResult, error) {
	res, err := simulateFixed(model, 1, slo, arrivals)
	if err != nil {
		return SimResult{}, err
	}
	res.Policy = "batch1"
	return res, nil
}

// simulateFixed runs the fixed-batch baseline: wait until exactly batch
// images are queued (or the trace has ended), then dispatch. This is
// the policy a server with a hardcoded batch size implements; it has no
// SLO awareness, so tail latency under light traffic is unbounded by
// anything but the trace end.
func simulateFixed(model Model, batch int, slo time.Duration, arrivals []time.Duration) (SimResult, error) {
	if batch < 1 {
		return SimResult{}, fmt.Errorf("batching: fixed batch %d < 1", batch)
	}
	base := time.Unix(0, 0)
	lat := make([]time.Duration, len(arrivals))
	deviceFree := base
	var dispatches int64
	hist := make(map[int]int64)
	flush := func(now time.Time, idx []int) {
		if len(idx) == 0 {
			return
		}
		start := now
		if deviceFree.After(start) {
			start = deviceFree
		}
		done := start.Add(durationOf(model.EstimateLatency(len(idx))))
		deviceFree = done
		dispatches++
		hist[len(idx)]++
		for _, id := range idx {
			lat[id] = done.Sub(base.Add(arrivals[id]))
		}
	}
	var pend []int
	for i, off := range arrivals {
		pend = append(pend, i)
		if len(pend) >= batch {
			flush(base.Add(off), pend)
			pend = pend[:0]
		}
	}
	if len(pend) > 0 {
		flush(base.Add(arrivals[len(arrivals)-1]), pend)
	}
	return summarize(fmt.Sprintf("fixed:%d", batch), arrivals, lat, slo, deviceFree.Sub(base), dispatches, hist), nil
}
