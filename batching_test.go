package ios_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"ios"
)

// TestBatcherExports drives the re-exported auto-batcher end to end
// against a real plan: concurrent submits are all answered, the plan
// satisfies the BatcherModel interface, and the stats add up.
func TestBatcherExports(t *testing.T) {
	eng := ios.NewEngine(ios.V100)
	p, err := eng.OptimizeBatches(context.Background(), ios.Figure2Block(1), []int{1, 2, 8}, ios.Options{})
	if err != nil {
		t.Fatalf("OptimizeBatches: %v", err)
	}
	var model ios.BatcherModel = p // *BatchPlan is a BatcherModel

	var mu sync.Mutex
	var images int
	b, err := ios.NewBatcher(ios.BatcherConfig{Model: model, SLO: 50 * time.Millisecond},
		func(d ios.BatchDispatch) (time.Duration, any, error) {
			mu.Lock()
			images += d.Images
			mu.Unlock()
			return time.Duration(model.EstimateLatency(d.Images) * float64(time.Second)), d.Images, nil
		})
	if err != nil {
		t.Fatalf("NewBatcher: %v", err)
	}
	defer b.Close()

	const n = 8
	var wg sync.WaitGroup
	results := make([]ios.BatchResult, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = b.Submit(context.Background(), 1)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if results[i].Batch < 1 || results[i].Service <= 0 {
			t.Errorf("result %d = %+v, want a served dispatch", i, results[i])
		}
	}
	mu.Lock()
	got := images
	mu.Unlock()
	if got != n {
		t.Errorf("executor saw %d images, want %d", got, n)
	}
	var st ios.BatcherStats = b.Stats()
	if st.Images != n || st.QueueDepth != 0 {
		t.Errorf("stats = %+v, want %d images and an empty queue", st, n)
	}

	// The synthetic-traffic generator is seeded: same seed, same trace.
	a1 := ios.PoissonArrivals(16, 1000, 7)
	a2 := ios.PoissonArrivals(16, 1000, 7)
	if len(a1) != 16 {
		t.Fatalf("trace length = %d", len(a1))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("seeded trace not deterministic at %d: %v vs %v", i, a1[i], a2[i])
		}
	}
}
