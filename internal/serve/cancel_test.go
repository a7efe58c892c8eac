package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCacheWaiterCancelUnblocksPromptly: a coalesced waiter whose context
// dies must return its own ctx.Err() immediately, while the computation —
// still wanted by the owner — runs to completion and is cached.
func TestCacheWaiterCancelUnblocksPromptly(t *testing.T) {
	c := NewScheduleCache(8)
	key := testKey("a", 1)
	started := make(chan struct{})
	release := make(chan struct{})

	var ownerEntry *Entry
	var ownerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ownerEntry, _, ownerErr = c.GetOrCompute(context.Background(), key, func(ctx context.Context) (*Entry, error) {
			close(started)
			<-release
			return &Entry{}, nil
		})
	}()
	<-started

	wctx, wcancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(wctx, key, func(ctx context.Context) (*Entry, error) {
			t.Error("waiter ran its own compute while one was in flight")
			return &Entry{}, nil
		})
		waiterDone <- err
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	wcancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not unblock")
	}

	// The owner's run was NOT cancelled by the waiter's disconnect.
	close(release)
	wg.Wait()
	if ownerErr != nil || ownerEntry == nil {
		t.Fatalf("owner err = %v entry = %v, want completed entry", ownerErr, ownerEntry)
	}
	if _, ok := c.Lookup(key); !ok {
		t.Fatal("completed entry was not cached")
	}
}

// TestCacheCancelFreesSlotAndRetrySucceeds: compute runs under its
// owner's context, so the owner's cancel stops it; the failed run is not
// cached (no poisoned entry), its claim is abandoned, and a retry computes
// fresh and succeeds.
func TestCacheCancelFreesSlotAndRetrySucceeds(t *testing.T) {
	c := NewScheduleCache(8)
	key := testKey("a", 1)
	ctx, cancel := context.WithCancel(context.Background())

	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx, key, func(runCtx context.Context) (*Entry, error) {
			close(started)
			<-runCtx.Done() // a well-behaved compute observes its context
			return nil, runCtx.Err()
		})
		done <- err
	}()
	<-started
	cancel() // the only requester disconnects

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not unwind")
	}
	if _, ok := c.Lookup(key); ok {
		t.Fatal("cancelled run left a poisoned cache entry")
	}
	if st := c.Stats(); st.Size != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want no entry after the one cancelled run", st)
	}

	// The retry claims the key afresh and succeeds.
	e, cached, err := c.GetOrCompute(context.Background(), key, func(context.Context) (*Entry, error) {
		return &Entry{}, nil
	})
	if err != nil || cached || e == nil {
		t.Fatalf("retry: entry=%v cached=%v err=%v, want fresh successful compute", e, cached, err)
	}
}

// TestCachePreCancelledContextShortCircuits: a dead context never touches
// the compute path or the stats counters' miss/hit accounting.
func TestCachePreCancelledContextShortCircuits(t *testing.T) {
	c := NewScheduleCache(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, testKey("a", 1), func(context.Context) (*Entry, error) {
		t.Error("compute ran under a pre-cancelled context")
		return &Entry{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Size != 0 || st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("pre-cancelled request moved the stats: %+v", st)
	}
	// Nor did it leave a claim behind.
	if _, cached, err := c.GetOrCompute(context.Background(), testKey("a", 1), func(context.Context) (*Entry, error) { return &Entry{}, nil }); err != nil || cached {
		t.Fatalf("after a pre-cancelled request: cached=%v err=%v, want a fresh compute", cached, err)
	}
}

// TestServerDeadlineReturns503 configures a server-side deadline shorter
// than a NasNet search (seconds; a RandWire search fits inside it) and
// checks the contract end to end: the slow request is shed with 503 + a
// JSON error and recorded in /stats, while a concurrent cheap request on
// the same server completes normally.
func TestServerDeadlineReturns503(t *testing.T) {
	s := NewServer(Config{Deadline: 250 * time.Millisecond, Logf: t.Logf})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	var slowStatus, fastStatus int
	var slowBody []byte
	wg.Add(2)
	go func() {
		defer wg.Done()
		resp, body := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "nasnet"})
		slowStatus, slowBody = resp.StatusCode, body
	}()
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "fig2"})
		fastStatus = resp.StatusCode
	}()
	wg.Wait()

	if fastStatus != http.StatusOK {
		t.Fatalf("unaffected request returned %d, want 200", fastStatus)
	}
	if slowStatus != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request returned %d, want 503 (body %s)", slowStatus, slowBody)
	}
	var errResp map[string]string
	if err := json.Unmarshal(slowBody, &errResp); err != nil || errResp["error"] == "" {
		t.Fatalf("503 body is not a JSON error: %s", slowBody)
	}
	if !strings.Contains(errResp["error"], "deadline") && !strings.Contains(errResp["error"], "cancel") {
		t.Fatalf("error %q does not mention the deadline/cancellation", errResp["error"])
	}

	// /stats records the shed request, and the cache holds only the fast
	// request's entry: both searched, the shed search cached nothing.
	resp, body := getBody(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats returned %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests["cancelled"] < 1 {
		t.Fatalf("stats cancelled requests = %d, want >= 1", st.Requests["cancelled"])
	}
	if st.Cache.Misses != 2 || st.Cache.Size != 1 {
		t.Fatalf("stats cache = %+v, want 2 searches and 1 entry", st.Cache)
	}
	// The timed-out key is retryable: no poisoned entry remains.
	deadlineKey := Key{Model: "nasnet", Batch: 1, Device: "Tesla V100", Opts: s.cfg.Options.Fingerprint()}
	if _, ok := s.Cache().Lookup(deadlineKey); ok {
		t.Fatal("timed-out search left a cache entry")
	}
}

// TestServerClientDisconnectFreesSlot cancels the client side of an
// expensive request and verifies the server stops the search and abandons
// its claim: nothing is cached, the key computes afresh, and the server
// stays fully responsive.
func TestServerClientDisconnectFreesSlot(t *testing.T) {
	s := NewServer(Config{Logf: t.Logf})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/optimize",
		strings.NewReader(`{"model": "nasnet"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	// Wait for the search to claim its key, then disconnect.
	waitFor(t, 10*time.Second, "the search never claimed its key", func() bool { return s.Cache().Stats().Misses == 1 })
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("client request unexpectedly completed")
	}
	// The handler notices the disconnect, stops the search and answers
	// 503, counted as a shed request.
	waitFor(t, 30*time.Second, "the cancelled search never returned", func() bool { return s.requests["cancelled"].Load() == 1 })
	key := Key{Model: "nasnet", Batch: 1, Device: "Tesla V100", Opts: s.optsFP}
	if _, ok := s.Cache().Lookup(key); ok || s.Cache().Len() != 0 {
		t.Fatalf("the cancelled search left %d entries", s.Cache().Len())
	}
	// Its claim is gone: the key computes afresh.
	if _, cached, err := s.Cache().GetOrCompute(context.Background(), key, func(context.Context) (*Entry, error) { return &Entry{}, nil }); err != nil || cached {
		t.Fatalf("retry after the disconnect: cached=%v err=%v, want a fresh compute", cached, err)
	}
	// The server still answers cheap requests promptly.
	resp, _ := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "fig2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request returned %d, want 200", resp.StatusCode)
	}
}

// TestServerOwnerDisconnectWaiterTakesOver: the owner of a cold NasNet-A
// search disconnects mid-search while a second request waits on the key.
// The owner's search stops and abandons its claim; the waiter takes the
// search over and answers the bytes a lone search answers. Every block the
// owner finished is a block-cache hit for the waiter, so the block
// searches are the distinct blocks plus at most the blocks in flight at
// the cancel — one per block searcher, at most GOMAXPROCS.
func TestServerOwnerDisconnectWaiterTakesOver(t *testing.T) {
	body := mustMarshal(t, OptimizeRequest{Model: "nasnet"})
	lone := NewServer(Config{})
	want, _, err := optimizeOK(lone, body)
	if err != nil {
		t.Fatal(err)
	}
	distinct := lone.BlockCache().Len()

	s := NewServer(Config{Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	owner := make(chan int, 1)
	go func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, newPost("/optimize", body).WithContext(ctx))
		owner <- w.Code
	}()
	waitFor(t, 10*time.Second, "the owner never claimed the key", func() bool { return s.Cache().Stats().Misses == 1 })
	type result struct {
		resp OptimizeResponse
		err  error
	}
	waiter := make(chan result, 1)
	go func() {
		resp, _, err := optimizeOK(s, body)
		waiter <- result{resp, err}
	}()
	waitFor(t, 10*time.Second, "the waiter never coalesced onto the owner's search", func() bool { return s.Cache().Stats().Coalesced == 1 })
	waitFor(t, 30*time.Second, "the owner's search finished no block", func() bool { return s.BlockCache().Len() > 0 })
	atCancel := s.BlockCache().Stats()
	cancel()
	if atCancel.Size >= distinct {
		t.Fatalf("the owner's search finished all %d blocks before the cancel; the test needs it mid-search", distinct)
	}

	if code := <-owner; code != http.StatusServiceUnavailable {
		t.Errorf("the disconnected owner got %d, want 503", code)
	}
	got := <-waiter
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.resp.Cached || !bytes.Equal(got.resp.Schedule, want.Schedule) {
		t.Errorf("waiter: cached %v, same schedule as a lone search %v; want its own search and the lone bytes", got.resp.Cached, bytes.Equal(got.resp.Schedule, want.Schedule))
	}
	bs := s.BlockCache().Stats()
	t.Logf("%d distinct blocks; at the cancel %d finished and %d in flight; %d block searches in all", distinct, atCancel.Size, atCancel.Misses-int64(atCancel.Size), bs.Misses)
	if bs.Size != distinct || bs.Misses > int64(distinct+runtime.GOMAXPROCS(0)) {
		t.Errorf("block cache: %d entries after %d searches, want %d entries after at most %d (distinct blocks + one in flight per searcher)",
			bs.Size, bs.Misses, distinct, distinct+runtime.GOMAXPROCS(0))
	}
	if st := s.Cache().Stats(); st.Misses != 2 || st.Size != 1 {
		t.Errorf("schedule cache = %+v, want 2 searches (owner, then waiter) and 1 entry", st)
	}
}

// waitFor polls cond until it holds, failing the test with msg after d.
func waitFor(t *testing.T, d time.Duration, msg string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
	}
}

// getBody GETs a URL and returns response + body (stats helper).
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}
