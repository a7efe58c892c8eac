package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
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
	if _, ok := c.Peek(key); !ok {
		t.Fatal("completed entry was not cached")
	}
}

// TestCacheCancelFreesSlotAndRetrySucceeds: when every requester of an
// in-flight key is gone the run's context is cancelled; the failed run is
// not cached (no poisoned entry), its singleflight slot is freed, and a
// retry computes fresh and succeeds.
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
	if _, ok := c.Peek(key); ok {
		t.Fatal("cancelled run left a poisoned cache entry")
	}
	if c.Len() != 0 {
		t.Fatalf("cancelled run left %d resident slots, want 0", c.Len())
	}
	st := c.Stats()
	if st.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", st.Cancelled)
	}

	// The retry owns a fresh slot and succeeds.
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
	if c.Len() != 0 {
		t.Fatal("pre-cancelled request left a slot behind")
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

	// /stats records the shed request and the cancelled search.
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
	if st.Cache.Cancelled < 1 {
		t.Fatalf("stats cancelled searches = %d, want >= 1", st.Cache.Cancelled)
	}
	// The timed-out key is retryable: no poisoned or stuck slot remains.
	deadlineKey := Key{Model: "nasnet", Batch: 1, Device: "Tesla V100", Opts: s.cfg.Options.Fingerprint()}
	if _, ok := s.Cache().Peek(deadlineKey); ok {
		t.Fatal("timed-out search left a cache entry")
	}
}

// TestServerClientDisconnectFreesSlot cancels the client side of an
// expensive request and verifies the server tears the search down and
// frees its singleflight slot, leaving the server fully responsive.
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
	// Wait for the search to be registered in flight, then disconnect.
	deadline := time.Now().Add(10 * time.Second)
	for s.Cache().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("search never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("client request unexpectedly completed")
	}
	// The server notices nobody is waiting, cancels the search, and frees
	// the slot — a retry would start fresh.
	deadline = time.Now().Add(30 * time.Second)
	for s.Cache().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled search still holds %d slots after 30s", s.Cache().Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := s.Cache().Stats().Cancelled; n != 1 {
		t.Fatalf("cancelled searches = %d, want 1", n)
	}
	// The server still answers cheap requests promptly.
	resp, _ := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Model: "fig2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request returned %d, want 200", resp.StatusCode)
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
