package serve

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/models"
	"ios/internal/profile"
)

func testKey(model string, batch int) Key {
	return Key{Model: model, Batch: batch, Device: "Tesla V100", Opts: core.Options{}.Fingerprint()}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewScheduleCache(8)
	calls := 0
	compute := func(context.Context) (*Entry, error) { calls++; return &Entry{}, nil }

	if _, cached, err := c.GetOrCompute(context.Background(), testKey("a", 1), compute); err != nil || cached {
		t.Fatalf("first get: cached=%v err=%v, want miss", cached, err)
	}
	if _, cached, err := c.GetOrCompute(context.Background(), testKey("a", 1), compute); err != nil || !cached {
		t.Fatalf("second get: cached=%v err=%v, want hit", cached, err)
	}
	if _, cached, _ := c.GetOrCompute(context.Background(), testKey("a", 2), compute); cached {
		t.Fatal("different batch should miss")
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Size != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, size 2", st)
	}
	keys := c.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i].Batch < keys[j].Batch })
	if want := []Key{testKey("a", 1), testKey("a", 2)}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
}

// TestCacheKeyEncodingIsInjective: two keys whose String forms are equal
// are two entries, each computed once.
func TestCacheKeyEncodingIsInjective(t *testing.T) {
	a := Key{Model: "m/b1/d", Batch: 1, Device: "x", Opts: "o"}
	b := Key{Model: "m", Batch: 1, Device: "d/b1/x", Opts: "o"}
	if a.String() != b.String() {
		t.Fatalf("the keys' String forms differ (%q, %q); the test wants a collision", a, b)
	}
	c := NewScheduleCache(8)
	calls := 0
	for _, k := range []Key{a, b, a, b} {
		e, _, err := c.GetOrCompute(context.Background(), k, func(context.Context) (*Entry, error) { calls++; return &Entry{}, nil })
		if err != nil || e.Key != k {
			t.Fatalf("GetOrCompute(%#v) = entry for %#v, err %v", k, e.Key, err)
		}
	}
	if calls != 2 || c.Len() != 2 {
		t.Fatalf("%d computes, %d entries; want 2 and 2", calls, c.Len())
	}
}

// TestCacheDeduplicatesConcurrentRequests is the serving layer's core
// guarantee: N goroutines racing for the same (model, batch, device) key
// trigger exactly one optimization run. The run is a real core.OptimizeContext of
// the paper's Figure-2 block, and the single-run assertion is made both on
// the compute-call count and on the profiler measurement count embedded in
// the shared entry's SearchStats (every caller sees the same stats because
// the search happened once).
func TestCacheDeduplicatesConcurrentRequests(t *testing.T) {
	const N = 32
	c := NewScheduleCache(8)
	key := testKey("fig2", 1)

	var computeCalls, totalMeasurements atomic.Int64
	compute := func(context.Context) (*Entry, error) {
		computeCalls.Add(1)
		g := models.Figure2Block(1)
		prof := profile.New(gpusim.TeslaV100)
		res, err := core.OptimizeContext(context.Background(), g, prof, core.Options{})
		if err != nil {
			return nil, err
		}
		totalMeasurements.Add(int64(res.Stats.Measurements))
		return &Entry{Stats: res.Stats}, nil
	}

	// A start barrier maximizes the racing window.
	start := make(chan struct{})
	entries := make([]*Entry, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			e, _, err := c.GetOrCompute(context.Background(), key, compute)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			entries[i] = e
		}(i)
	}
	close(start)
	wg.Wait()

	if n := computeCalls.Load(); n != 1 {
		t.Fatalf("optimizer ran %d times for %d concurrent requests, want exactly 1", n, N)
	}
	for i, e := range entries {
		if e == nil || e != entries[0] {
			t.Fatalf("goroutine %d got a different entry", i)
		}
	}
	// All N requesters observe the one search's measurement count.
	if got, want := totalMeasurements.Load(), int64(entries[0].Stats.Measurements); got != want {
		t.Fatalf("profiler measurements across all requests = %d, want the single run's %d", got, want)
	}
	if entries[0].Stats.Measurements == 0 {
		t.Fatal("the one real search reported zero profiler measurements")
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Coalesced != N-1 {
		t.Fatalf("hits (%d) + coalesced (%d) = %d, want %d", st.Hits, st.Coalesced, st.Hits+st.Coalesced, N-1)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewScheduleCache(8)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.GetOrCompute(context.Background(), testKey("a", 1), func(context.Context) (*Entry, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, cached, err := c.GetOrCompute(context.Background(), testKey("a", 1), func(context.Context) (*Entry, error) { calls++; return &Entry{}, nil }); err != nil || cached {
		t.Fatalf("retry after error: cached=%v err=%v, want fresh compute", cached, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (failure must not be cached)", calls)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 2 misses, no hit, size 1", st)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Model: "inception", Batch: 16, Device: "Tesla V100", Opts: "IOS-Both/r=3,s=8"}
	want := "inception/b16/Tesla V100/IOS-Both/r=3,s=8"
	if got := k.String(); got != want {
		t.Fatalf("Key.String() = %q, want %q", got, want)
	}
}

// TestCachePanicInComputeDoesNotPoisonKey guards against a stuck key: a
// panicking computation comes back to its owner as an error, caches
// nothing, and a coalesced waiter computes the key afresh instead of
// deadlocking on it.
func TestCachePanicInComputeDoesNotPoisonKey(t *testing.T) {
	c := NewScheduleCache(8)
	key := testKey("a", 1)

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	var panicErr, waiterErr error
	var waiterEntry *Entry
	var waiterCached bool
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, panicErr = c.GetOrCompute(context.Background(), key, func(context.Context) (*Entry, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	go func() {
		defer wg.Done()
		<-started // the key is claimed and compute is in flight
		waiterEntry, waiterCached, waiterErr = c.GetOrCompute(context.Background(), key, func(context.Context) (*Entry, error) {
			return &Entry{}, nil
		})
	}()
	<-started
	// Release the panic only once the waiter has provably coalesced onto
	// the in-flight claim.
	for c.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if panicErr == nil || !strings.Contains(panicErr.Error(), "panicked") {
		t.Fatalf("owner error = %v, want computation-panicked error", panicErr)
	}
	if waiterErr != nil || waiterCached || waiterEntry == nil {
		t.Fatalf("waiter: entry=%v cached=%v err=%v, want its own fresh compute", waiterEntry, waiterCached, waiterErr)
	}
	// The key is not wedged: it holds the waiter's entry.
	if e, cached, err := c.GetOrCompute(context.Background(), key, func(context.Context) (*Entry, error) { return &Entry{}, nil }); err != nil || !cached || e != waiterEntry {
		t.Fatalf("after the panic: cached=%v err=%v, want a hit on the waiter's entry", cached, err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (the panicked run and the waiter's)", st.Misses)
	}
}
