package batching

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for Batcher tests: time
// only moves when a test advances it, so no test here sleeps.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: t0} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Set(d time.Duration) {
	c.mu.Lock()
	c.now = t0.Add(d)
	c.mu.Unlock()
}

// countingExec returns an Exec that tallies dispatches and images and
// reports a fixed tiny service latency.
func countingExec(dispatches, images *atomic.Int64) Exec {
	return func(d Dispatch) (time.Duration, any, error) {
		dispatches.Add(1)
		images.Add(int64(d.Images))
		return 100 * time.Microsecond, nil, nil
	}
}

func newTestBatcher(t *testing.T, cfg Config, exec Exec) *Batcher {
	t.Helper()
	if cfg.Model == nil {
		cfg.Model = testModel()
	}
	if cfg.SLO == 0 {
		cfg.SLO = 20 * time.Millisecond
	}
	b, err := NewBatcher(cfg, exec)
	if err != nil {
		t.Fatalf("NewBatcher: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// waitFor spins (yielding) until cond is true or the deadline passes.
// It polls state, it does not sleep through scripted time.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func TestBatcherValidation(t *testing.T) {
	if _, err := NewBatcher(Config{Model: testModel(), SLO: time.Second}, nil); err == nil {
		t.Error("NewBatcher accepted a nil Exec")
	}
	if _, err := NewBatcher(Config{}, func(Dispatch) (time.Duration, any, error) { return 0, nil, nil }); err == nil {
		t.Error("NewBatcher accepted a config without a model")
	}
}

// TestBatcherImmediateDispatch: a cold-start submit (no observed rate)
// executes immediately and the result carries the dispatch metadata.
func TestBatcherImmediateDispatch(t *testing.T) {
	var dispatches, images atomic.Int64
	b := newTestBatcher(t, Config{}, countingExec(&dispatches, &images))
	res, err := b.Submit(context.Background(), 1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Batch != 1 || res.Service != 100*time.Microsecond || res.Violated {
		t.Errorf("result = %+v, want batch 1, service 100µs, no violation", res)
	}
	if dispatches.Load() != 1 || images.Load() != 1 {
		t.Errorf("exec saw %d dispatches / %d images, want 1/1", dispatches.Load(), images.Load())
	}
	st := b.Stats()
	if st.Dispatches != 1 || st.Images != 1 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v, want 1 dispatch, 1 image, empty queue", st)
	}
	if st.DispatchHist[1] != 1 {
		t.Errorf("dispatch histogram = %v, want map[1:1]", st.DispatchHist)
	}
	if _, err := b.Submit(context.Background(), 0); err == nil {
		t.Error("Submit accepted 0 images")
	}
}

// TestBatcherCoalesces: with a scripted clock establishing an arrival
// rate, later submits queue up and ride one coalesced dispatch when the
// drain (or SLO timer) releases them.
func TestBatcherCoalesces(t *testing.T) {
	var dispatches, images atomic.Int64
	clock := newFakeClock()
	b := newTestBatcher(t, Config{SLO: time.Hour}, countingExec(&dispatches, &images))
	b.mu.Lock()
	b.now = clock.Now
	b.mu.Unlock()

	// First submit at t=0: cold start, dispatches alone.
	if _, err := b.Submit(context.Background(), 1); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Two more submits 1ms apart (scripted): the queue now has a rate
	// estimate and an enormous SLO, so both wait for a bigger batch.
	results := make(chan Result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		clock.Set(time.Duration(i+1) * time.Millisecond)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := b.Submit(context.Background(), 1)
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			results <- res
		}()
		want := i + 1
		waitFor(t, func() bool { return b.Stats().QueueDepth == want }, "submit to queue")
	}

	if got := b.Stats().QueueDepth; got != 2 {
		t.Fatalf("queue depth = %d, want 2 queued submits", got)
	}
	// Drain releases the queue as one coalesced dispatch.
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	close(results)
	for res := range results {
		if res.Batch != 2 {
			t.Errorf("coalesced result batch = %d, want 2", res.Batch)
		}
	}
	if dispatches.Load() != 2 || images.Load() != 3 {
		t.Errorf("exec saw %d dispatches / %d images, want 2/3", dispatches.Load(), images.Load())
	}
}

// TestBatcherSubmitCancel: a queued request whose context ends is
// retracted and never executes.
func TestBatcherSubmitCancel(t *testing.T) {
	var dispatches, images atomic.Int64
	clock := newFakeClock()
	b := newTestBatcher(t, Config{SLO: time.Hour}, countingExec(&dispatches, &images))
	b.mu.Lock()
	b.now = clock.Now
	b.mu.Unlock()

	if _, err := b.Submit(context.Background(), 1); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	clock.Set(time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, 1)
		errCh <- err
	}()
	waitFor(t, func() bool { return b.Stats().QueueDepth == 1 }, "submit to queue")
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Submit returned %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return b.Stats().QueueDepth == 0 }, "retraction")
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if dispatches.Load() != 1 {
		t.Errorf("exec saw %d dispatches, want 1 (canceled request never ran)", dispatches.Load())
	}
}

// TestBatcherExecError: an executor failure propagates to every request
// of the dispatch.
func TestBatcherExecError(t *testing.T) {
	boom := errors.New("device on fire")
	b := newTestBatcher(t, Config{}, func(d Dispatch) (time.Duration, any, error) {
		return 0, nil, boom
	})
	res, err := b.Submit(context.Background(), 1)
	if !errors.Is(err, boom) || !errors.Is(res.Err, boom) {
		t.Errorf("Submit = (%+v, %v), want the exec error", res, err)
	}
}

// TestBatcherClose: Close drains, rejects later submits, and is
// idempotent.
func TestBatcherClose(t *testing.T) {
	var dispatches, images atomic.Int64
	b := newTestBatcher(t, Config{}, countingExec(&dispatches, &images))
	if _, err := b.Submit(context.Background(), 1); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := b.Submit(context.Background(), 1); err == nil {
		t.Error("Submit succeeded after Close")
	}
}

// TestBatcherConcurrentSubmits hammers the batcher from many goroutines
// (run under -race in CI): every submit completes and the counters add
// up exactly.
func TestBatcherConcurrentSubmits(t *testing.T) {
	var dispatches, images atomic.Int64
	b := newTestBatcher(t, Config{SLO: 50 * time.Millisecond}, countingExec(&dispatches, &images))
	const n = 64
	var wg sync.WaitGroup
	var ok atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), 1); err == nil {
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	if ok.Load() != n {
		t.Fatalf("%d/%d submits completed", ok.Load(), n)
	}
	if images.Load() != n {
		t.Errorf("exec saw %d images, want %d", images.Load(), n)
	}
	st := b.Stats()
	if st.Images != n || st.QueueDepth != 0 || st.InFlight != 0 {
		t.Errorf("stats = %+v, want %d images and an idle batcher", st, n)
	}
	var histTotal int64
	for _, c := range st.DispatchHist {
		histTotal += c
	}
	if histTotal != st.Dispatches {
		t.Errorf("histogram total %d != dispatches %d", histTotal, st.Dispatches)
	}
}

// TestBatcherOwnsNoGoroutine: a batcher that is never closed leaves the
// goroutine count where it was once its Submits have returned — each
// dispatch ran on the goroutine that decided it.
func TestBatcherOwnsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	var dispatches, images atomic.Int64
	b, err := NewBatcher(Config{Model: testModel(), SLO: 20 * time.Millisecond}, countingExec(&dispatches, &images))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Submit(context.Background(), 1); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base }, "the goroutine count back at its baseline")
	if images.Load() != 3 {
		t.Errorf("exec saw %d images, want 3", images.Load())
	}
}

// TestBatcherExecPanic: a panicking Exec fails its dispatch's requests
// with an error, and the next Submit completes.
func TestBatcherExecPanic(t *testing.T) {
	var calls atomic.Int64
	b := newTestBatcher(t, Config{}, func(d Dispatch) (time.Duration, any, error) {
		if calls.Add(1) == 1 {
			panic("device on fire")
		}
		return 100 * time.Microsecond, nil, nil
	})
	res, err := b.Submit(context.Background(), 1)
	if err == nil || res.Err == nil || !strings.Contains(err.Error(), "device on fire") {
		t.Fatalf("Submit over a panicking Exec = (%+v, %v), want its panic as the error", res, err)
	}
	if res, err := b.Submit(context.Background(), 1); err != nil || res.Batch != 1 {
		t.Fatalf("Submit after the panic = (%+v, %v), want a completed batch of 1", res, err)
	}
	if st := b.Stats(); st.InFlight != 0 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v, want an idle batcher", st)
	}
}
