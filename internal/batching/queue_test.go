package batching

import (
	"testing"
	"time"
)

// fakeModel is an analytic measured-model stand-in: latency grows
// affinely with batch (base + perImage·b), so bigger batches always
// amortize better — the regime where batching pays.
type fakeModel struct {
	batches  []int
	base     float64 // seconds
	perImage float64 // seconds per image
}

func (m fakeModel) Batches() []int { return m.batches }
func (m fakeModel) EstimateLatency(batch int) float64 {
	return m.base + m.perImage*float64(batch)
}

// testModel: L(1)=1.1ms, L(4)=1.4ms, L(16)=2.6ms. Per-image cost falls
// from 1.1ms to 0.1625ms — waiting for batch 16 is an ~7x throughput
// win when the SLO allows it.
func testModel() fakeModel {
	return fakeModel{batches: []int{1, 4, 16}, base: 1e-3, perImage: 1e-4}
}

// cappedModel is testModel planned only up to maxBatch, which is then
// the queue's dispatch cap.
func cappedModel(maxBatch int) fakeModel {
	m := testModel()
	m.batches = []int{1, maxBatch}
	return m
}

func newTestQueue(t *testing.T, cfg Config) *Queue {
	t.Helper()
	if cfg.Model == nil {
		cfg.Model = testModel()
	}
	if cfg.SLO == 0 {
		cfg.SLO = 20 * time.Millisecond
	}
	q, err := NewQueue(cfg)
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	return q
}

var t0 = time.Unix(0, 0)

func at(d time.Duration) time.Time { return t0.Add(d) }

func addOne(t *testing.T, q *Queue, id uint64, now time.Time) {
	t.Helper()
	if err := q.Add(now, Request{ID: id, Images: 1, Arrived: now}); err != nil {
		t.Fatalf("Add: %v", err)
	}
}

func TestQueueValidation(t *testing.T) {
	if _, err := NewQueue(Config{SLO: time.Second}); err == nil {
		t.Error("NewQueue accepted a nil model")
	}
	if _, err := NewQueue(Config{Model: testModel()}); err == nil {
		t.Error("NewQueue accepted a zero SLO")
	}
	if _, err := NewQueue(Config{Model: fakeModel{batches: []int{4, 2}}, SLO: time.Second}); err == nil {
		t.Error("NewQueue accepted non-ascending batches")
	}
	if _, err := NewQueue(Config{Model: fakeModel{}, SLO: time.Second}); err == nil {
		t.Error("NewQueue accepted a model with no batches")
	}
	q := newTestQueue(t, Config{})
	if q.maxBatch != 16 {
		t.Errorf("dispatch cap = %d, want largest planned 16", q.maxBatch)
	}
	if err := q.Add(t0, Request{ID: 1, Images: 0}); err == nil {
		t.Error("Add accepted a zero-image request")
	}
}

// TestDecideColdStart: with no observed arrival rate the queue cannot
// price waiting, so the first request dispatches immediately.
func TestDecideColdStart(t *testing.T) {
	q := newTestQueue(t, Config{})
	addOne(t, q, 1, t0)
	d, ok, _ := q.Decide(t0, time.Time{})
	if !ok {
		t.Fatal("cold-start Decide did not dispatch")
	}
	if d.Images != 1 || len(d.Requests) != 1 || d.Requests[0].ID != 1 {
		t.Errorf("dispatch = %+v, want the single queued request", d)
	}
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d images left", q.Len())
	}
}

// TestDecideWaitsForBiggerBatch: with a healthy arrival rate and SLO
// headroom, the queue holds requests for the bigger planned batch and
// reports its last-call wake time.
func TestDecideWaitsForBiggerBatch(t *testing.T) {
	q := newTestQueue(t, Config{SLO: 50 * time.Millisecond})
	// Arrivals 1ms apart → rate settles near 1000 images/sec: growing
	// from 2 to 16 queued images costs ~14ms, well within the SLO.
	addOne(t, q, 1, at(0))
	addOne(t, q, 2, at(time.Millisecond))
	now := at(time.Millisecond)
	d, ok, wake := q.Decide(now, time.Time{})
	if ok {
		t.Fatalf("Decide dispatched %+v, want wait for batch 16", d)
	}
	// lastCall = oldest deadline − L(queue=2) = 50ms − 1.2ms.
	wantWake := at(50*time.Millisecond - durationOf(q.lat(2)))
	if !wake.Equal(wantWake) {
		t.Errorf("wake = %v, want last-call %v", wake.Sub(t0), wantWake.Sub(t0))
	}
	// At the wake time the queue must dispatch whatever it has.
	d, ok, _ = q.Decide(wake, time.Time{})
	if !ok || d.Images != 2 {
		t.Fatalf("Decide at wake = (%+v, %v), want dispatch of 2 images", d, ok)
	}
}

// TestDecideDispatchesAtPlannedBatch: once the queue reaches an
// amortization-optimal planned batch it stops waiting.
func TestDecideDispatchesAtPlannedBatch(t *testing.T) {
	q := newTestQueue(t, Config{SLO: 50 * time.Millisecond})
	var now time.Time
	for i := 0; i < 16; i++ {
		now = at(time.Duration(i) * time.Millisecond)
		addOne(t, q, uint64(i), now)
	}
	d, ok, _ := q.Decide(now, time.Time{})
	if !ok || d.Images != 16 {
		t.Fatalf("Decide with 16 queued = (%+v, %v), want dispatch of 16", d, ok)
	}
}

// TestDecideRespectsSLOHeadroom: when the expected wait for the next
// planned batch would blow the oldest request's deadline, the queue
// dispatches what it has instead of waiting.
func TestDecideRespectsSLOHeadroom(t *testing.T) {
	// SLO 4ms; reaching batch 16 from 2 at 1000 img/s takes ~14ms.
	// Waiting even for batch 4 (2ms at rate 1000) leaves 4−2−L(4)=… <0.
	q := newTestQueue(t, Config{SLO: 4 * time.Millisecond})
	addOne(t, q, 1, at(0))
	addOne(t, q, 2, at(time.Millisecond))
	d, ok, _ := q.Decide(at(time.Millisecond), time.Time{})
	if !ok || d.Images != 2 {
		t.Fatalf("Decide under tight SLO = (%+v, %v), want immediate dispatch of 2", d, ok)
	}
}

// TestDecideBusyDevice: a backlogged device consumes SLO headroom — a
// queue that would otherwise wait must dispatch (or even that is late).
func TestDecideBusyDevice(t *testing.T) {
	q := newTestQueue(t, Config{SLO: 50 * time.Millisecond})
	addOne(t, q, 1, at(0))
	addOne(t, q, 2, at(time.Millisecond))
	now := at(time.Millisecond)
	// Device free only at 49ms: start(now+wait)+L(16) > 50ms for every
	// bigger batch, and even the current queue barely makes it — the
	// queue must stop waiting.
	busyUntil := at(49 * time.Millisecond)
	if _, ok, _ := q.Decide(now, busyUntil); !ok {
		t.Fatal("Decide kept waiting despite a backlogged device")
	}
}

// TestDecideMaxBatchCap: no dispatch carries more than the largest
// planned batch, past which the model extrapolates.
func TestDecideMaxBatchCap(t *testing.T) {
	q := newTestQueue(t, Config{Model: cappedModel(4), SLO: 50 * time.Millisecond})
	var now time.Time
	for i := 0; i < 5; i++ {
		now = at(time.Duration(i) * time.Millisecond)
		addOne(t, q, uint64(i), now)
	}
	// 5 queued, cap 4: dispatch the cap now; the fifth waits its turn.
	d, ok, _ := q.Decide(now, time.Time{})
	if !ok || d.Images != 4 || q.Len() != 1 {
		t.Fatalf("Decide past the cap = (%+v, %v) leaving %d, want dispatch of 4 leaving 1", d, ok, q.Len())
	}
}

// TestDecideNoAmortizationNoWait: when the model says bigger batches do
// not improve per-image latency, waiting is never chosen.
func TestDecideNoAmortizationNoWait(t *testing.T) {
	// Purely linear model: L(b) = b·1ms, so L(b)/b is constant — no win.
	m := fakeModel{batches: []int{1, 4, 16}, base: 0, perImage: 1e-3}
	q := newTestQueue(t, Config{Model: m, SLO: time.Second})
	addOne(t, q, 1, at(0))
	addOne(t, q, 2, at(time.Millisecond))
	if _, ok, _ := q.Decide(at(time.Millisecond), time.Time{}); !ok {
		t.Fatal("Decide waited although the model shows no amortization win")
	}
}

func TestQueueRateEWMA(t *testing.T) {
	q := newTestQueue(t, Config{})
	addOne(t, q, 1, at(0))
	if q.Rate() != 0 {
		t.Errorf("rate after one arrival = %v, want 0 (unknown)", q.Rate())
	}
	addOne(t, q, 2, at(time.Millisecond))
	if got := q.Rate(); got < 999 || got > 1001 {
		t.Errorf("rate after 1ms gap = %v, want ~1000", got)
	}
	// A same-timestamp burst folds into the gap that follows it: three
	// images over the next 1ms gap triples the instantaneous rate.
	addOne(t, q, 3, at(time.Millisecond))
	addOne(t, q, 4, at(time.Millisecond))
	before := q.Rate()
	addOne(t, q, 5, at(2*time.Millisecond))
	if got := q.Rate(); got <= before {
		t.Errorf("rate after burst = %v, want above pre-burst %v", got, before)
	}
}

func TestQueueRemove(t *testing.T) {
	q := newTestQueue(t, Config{})
	addOne(t, q, 1, at(0))
	addOne(t, q, 2, at(time.Millisecond))
	if !q.Remove(1) {
		t.Fatal("Remove(1) = false for a queued request")
	}
	if q.Remove(1) {
		t.Error("Remove(1) = true twice")
	}
	if q.Len() != 1 || q.Requests() != 1 {
		t.Errorf("after Remove: %d images %d requests, want 1/1", q.Len(), q.Requests())
	}
	// The rate is known and the SLO has headroom, so the queue waits;
	// at its wake time the dispatch must carry only the surviving request.
	_, ok, wake := q.Decide(at(time.Millisecond), time.Time{})
	if ok {
		t.Fatal("Decide dispatched before the wake time")
	}
	d, ok, _ := q.Decide(wake, time.Time{})
	if !ok || len(d.Requests) != 1 || d.Requests[0].ID != 2 {
		t.Errorf("dispatch after Remove = %+v, want only request 2", d)
	}
}

func TestQueueFlushAndHistogram(t *testing.T) {
	q := newTestQueue(t, Config{Model: cappedModel(4)})
	for i := 0; i < 10; i++ {
		addOne(t, q, uint64(i), at(time.Duration(i)*time.Millisecond))
	}
	ds := q.Flush()
	if len(ds) != 3 {
		t.Fatalf("Flush produced %d dispatches, want 3 (4+4+2 under cap 4)", len(ds))
	}
	if ds[0].Images != 4 || ds[1].Images != 4 || ds[2].Images != 2 {
		t.Errorf("Flush sizes = %d,%d,%d, want 4,4,2", ds[0].Images, ds[1].Images, ds[2].Images)
	}
	if q.Len() != 0 || q.Requests() != 0 {
		t.Errorf("queue not empty after Flush: %d images", q.Len())
	}
	hist := q.Histogram()
	if hist[4] != 2 || hist[2] != 1 {
		t.Errorf("histogram = %v, want map[2:1 4:2]", hist)
	}
	// The histogram is a copy — mutating it must not touch the queue.
	hist[4] = 99
	if q.Histogram()[4] != 2 {
		t.Error("Histogram returned a live reference, want a copy")
	}
}

// TestQueueMultiImageRequests: requests are atomic — frontSize takes
// whole requests up to the cap but always at least one.
func TestQueueMultiImageRequests(t *testing.T) {
	q := newTestQueue(t, Config{Model: cappedModel(8)})
	if err := q.Add(at(0), Request{ID: 1, Images: 6, Arrived: at(0)}); err != nil {
		t.Fatal(err)
	}
	if err := q.Add(at(time.Millisecond), Request{ID: 2, Images: 6, Arrived: at(time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	if got := q.frontSize(); got != 6 {
		t.Errorf("frontSize = %d, want 6 (second request would exceed the cap)", got)
	}
	// An oversized single request still dispatches alone.
	q2 := newTestQueue(t, Config{Model: cappedModel(4)})
	if err := q2.Add(at(0), Request{ID: 1, Images: 10, Arrived: at(0)}); err != nil {
		t.Fatal(err)
	}
	d, ok, _ := q2.Decide(at(0), time.Time{})
	if !ok || d.Images != 10 {
		t.Fatalf("oversized request dispatch = (%+v, %v), want 10 images", d, ok)
	}
}
