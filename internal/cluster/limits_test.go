package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ios/internal/blockcache"
	"ios/internal/measure"
	"ios/internal/serve"
)

// soloNode builds one node over fresh private caches whose only peers are
// the given members, reached through client.
func soloNode(t *testing.T, client *http.Client, peers ...Member) (*Node, *serve.Server) {
	t.Helper()
	srv := serve.NewServer(serve.Config{
		Cache:        serve.NewScheduleCache(8),
		MeasureCache: measure.NewCache(),
		BlockCache:   blockcache.NewCache(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	n, err := New(ctx, Config{
		Self:         "self",
		Members:      append([]Member{{ID: "self", URL: "http://unused.invalid"}}, peers...),
		Server:       srv,
		Client:       client,
		FetchTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, srv
}

// blockEntry is a valid wire entry for a synthetic fingerprint: ops
// operators in the one group of a single stage.
func blockEntry(id string, ops int) blockcache.WireEntry {
	group := make([]int, ops)
	for i := range group {
		group[i] = i
	}
	return blockcache.WireEntry{
		Key: base64.RawURLEncoding.EncodeToString(append([]byte{blockcache.KeyVersion}, id...)),
		Ops: ops, States: 1, Transitions: 1,
		Stages: []blockcache.WireStage{{Strategy: "concurrent", Groups: [][]int{group}}},
	}
}

// post drives one request through the node's handler.
func post(n *Node, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// bigEntries returns valid block entries whose JSON encodings add up to
// more than size bytes.
func bigEntries(size int) []blockcache.WireEntry {
	var out []blockcache.WireEntry
	for total := 0; total <= size; {
		we := blockEntry(fmt.Sprint(len(out)), 4000)
		raw, _ := json.Marshal(we)
		total += len(raw)
		out = append(out, we)
	}
	return out
}

// TestOversizedPeerResponsesAreMisses: a peer that answers with a body
// past maxPeerBody — a snapshot, a plan listing, a plan — costs a failed
// pull, nothing more. Every body below is valid and echoes exactly what
// was asked for, so without the bound each one would be accepted — the
// size is the only defect.
func TestOversizedPeerResponsesAreMisses(t *testing.T) {
	backlog := bigEntries(maxPeerBody)
	snapshot := snapshotOf(t, backlog...)
	if added, err := blockcache.NewCache().MergeFrames(bytes.NewReader(snapshot)); err != nil || added != len(backlog) {
		t.Fatalf("the snapshot unbounded loads (%d, %v), want all %d entries: the test is vacuous", added, err, len(backlog))
	}
	_, info, planBytes := zooPlan(t, "fig2")
	padding := strings.Repeat(" ", maxPeerBody+1)
	evil := &fakePeer{}
	evil.set(snapshot, []byte(padding+"[]"), nil)
	es := httptest.NewServer(evil)
	defer es.Close()
	n, srv := soloNode(t, es.Client(), Member{ID: "evil", URL: es.URL})

	if got := srv.BlockCache().Len(); got != 0 {
		t.Fatalf("an oversized snapshot left %d entries in the cache, want 0", got)
	}
	if st := n.Stats(); st.MergedBlocks != 0 || st.PeersMarkedDown != 1 {
		t.Fatalf("after an oversized snapshot: %+v, want nothing merged and the peer marked down", st)
	}

	// Let the cooldown lapse so the plan pull actually asks the peer.
	n.now = func() time.Time { return time.Now().Add(time.Hour) }
	if added, err := n.PullPlans(context.Background()); err == nil || added != 0 {
		t.Fatalf("PullPlans from an oversized listing = (%d, %v), want an error and nothing registered", added, err)
	}
	// A valid listing, and at the plan's URL the plan it lists behind
	// padding.
	evil.set(nil, listing(t, info), append([]byte(padding), planBytes...))
	if added, err := n.PullPlans(context.Background()); err == nil || added != 0 || len(srv.Plans()) != 0 {
		t.Fatalf("PullPlans of an oversized plan = (%d, %v) and %d plans registered, want an error and none", added, err, len(srv.Plans()))
	}
}

// TestOversizedPushIsRefused: POST /cluster/push reads at most maxPeerBody.
// The body is a valid one-entry push behind padding, so without the bound
// it would be merged (200 and one entry); with it the push is a 413 that
// merges nothing, and the same push unpadded still lands.
func TestOversizedPushIsRefused(t *testing.T) {
	n, srv := soloNode(t, nil)
	body, err := json.Marshal(pushRequest{Block: []blockcache.WireEntry{blockEntry("b", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(n, http.MethodPost, "/cluster/push", strings.Repeat(" ", maxPeerBody)+string(body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized push: HTTP %d, want 413", rec.Code)
	}
	if got := srv.BlockCache().Len(); got != 0 {
		t.Errorf("oversized push left %d block entries, want 0", got)
	}
	if rec := post(n, http.MethodPost, "/cluster/push", string(body)); rec.Code != http.StatusOK || srv.BlockCache().Len() != 1 {
		t.Errorf("the same push unpadded: HTTP %d, %d entries; want 200 and 1", rec.Code, srv.BlockCache().Len())
	}
}

// TestSyncShipsInChunks: a backlog that encodes to several times
// pushChunkBytes — a node restarted over a large block-cache file — reaches
// its peer as several pushes, each under the chunk size, and the cursor
// advances: the next Sync has nothing left to ship.
func TestSyncShipsInChunks(t *testing.T) {
	peerNode, owner := soloNode(t, nil)
	var mu sync.Mutex
	var bodies []int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cluster/push" {
			mu.Lock()
			bodies = append(bodies, r.ContentLength)
			mu.Unlock()
		}
		peerNode.ServeHTTP(w, r)
	}))
	defer peer.Close()
	n, srv := soloNode(t, peer.Client(), Member{ID: "peer", URL: peer.URL})

	backlog := bigEntries(3 * pushChunkBytes)
	if _, err := srv.BlockCache().Load(bytes.NewReader(snapshotOf(t, backlog...))); err != nil {
		t.Fatal(err)
	}
	want := len(backlog)
	pushed, err := n.Sync(context.Background())
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if pushed != want || owner.BlockCache().Len() != want {
		t.Errorf("pushed %d, peer holds %d, want %d (every entry loaded from the file)", pushed, owner.BlockCache().Len(), want)
	}
	if again, err := n.Sync(context.Background()); err != nil || again != 0 {
		t.Errorf("second sync pushed %d (err %v), want 0: the cursor did not advance", again, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) < 2 {
		t.Errorf("backlog of %d entries went out as %d push(es), want several", want, len(bodies))
	}
	for i, b := range bodies {
		if b > pushChunkBytes {
			t.Errorf("push %d is %d bytes, over the %d chunk size", i, b, pushChunkBytes)
		}
	}
}

// TestSyncKeepsOneCursorPerPeer: a peer inside its failure cooldown holds
// back nobody else. While it is down a second Sync ships nothing to the
// live peer, and once the cooldown lapses and it answers again it gets its
// whole backlog.
func TestSyncKeepsOneCursorPerPeer(t *testing.T) {
	liveNode, live := soloNode(t, nil)
	flakyNode, flaky := soloNode(t, nil)
	var livePushes atomic.Int64
	var failing atomic.Bool
	failing.Store(true)
	liveSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cluster/push" {
			livePushes.Add(1)
		}
		liveNode.ServeHTTP(w, r)
	}))
	defer liveSrv.Close()
	flakySrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		flakyNode.ServeHTTP(w, r)
	}))
	defer flakySrv.Close()
	n, srv := soloNode(t, nil, Member{ID: "live", URL: liveSrv.URL}, Member{ID: "flaky", URL: flakySrv.URL})
	clock := time.Now()
	n.now = func() time.Time { return clock }
	entries := []blockcache.WireEntry{blockEntry("a", 1), blockEntry("b", 2), blockEntry("c", 3)}
	if _, err := srv.BlockCache().Load(bytes.NewReader(snapshotOf(t, entries...))); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if pushed, err := n.Sync(ctx); err == nil || pushed != len(entries) {
		t.Fatalf("first sync = (%d, %v), want %d pushed to the live peer and the flaky one's error", pushed, err, len(entries))
	}
	if live.BlockCache().Len() != len(entries) || flaky.BlockCache().Len() != 0 {
		t.Fatalf("after the first sync: live holds %d, flaky %d; want %d and 0", live.BlockCache().Len(), flaky.BlockCache().Len(), len(entries))
	}
	// (a) The flaky peer is cooling down: nothing ships to the live one.
	before := livePushes.Load()
	if pushed, err := n.Sync(ctx); pushed != 0 || err == nil {
		t.Errorf("sync during the cooldown = (%d, %v), want 0 shipped and the down peer reported", pushed, err)
	}
	if got := livePushes.Load() - before; got != 0 {
		t.Errorf("the live peer got %d pushes while another peer was down, want 0", got)
	}
	// (b) The cooldown lapses and the peer recovers: it gets its backlog.
	failing.Store(false)
	clock = clock.Add(2 * n.cfg.FailureCooldown)
	if pushed, err := n.Sync(ctx); err != nil || pushed != len(entries) {
		t.Errorf("sync after recovery = (%d, %v), want the flaky peer's backlog of %d", pushed, err, len(entries))
	}
	if flaky.BlockCache().Len() != len(entries) {
		t.Errorf("the recovered peer holds %d entries, want %d", flaky.BlockCache().Len(), len(entries))
	}
	if got := livePushes.Load() - before; got != 0 {
		t.Errorf("the live peer got %d more pushes, want 0", got)
	}
	if pushed, err := n.Sync(ctx); err != nil || pushed != 0 {
		t.Errorf("idle sync = (%d, %v), want (0, nil)", pushed, err)
	}
}

// roundTripFunc is an http.RoundTripper made of a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestHangingPeerCannotDelayAPush: with members [hanging, live], where the
// hanging one accepts connections and never answers, the live peer
// receives the entries within one FetchTimeout of Sync starting, not after
// the hanging push times out, and the hanging peer's cursor stays put.
func TestHangingPeerCannotDelayAPush(t *testing.T) {
	hangURL, _ := hangingPeer(t)
	liveNode, live := soloNode(t, nil)
	liveSrv := httptest.NewServer(liveNode)
	defer liveSrv.Close()
	// answered fires once the live peer's answer to a push is back.
	answered := make(chan struct{}, 1)
	base := &http.Transport{}
	defer base.CloseIdleConnections()
	client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := base.RoundTrip(r)
		if err == nil && "http://"+r.URL.Host == liveSrv.URL && r.URL.Path == "/cluster/push" {
			answered <- struct{}{}
		}
		return resp, err
	})}
	n, srv := soloNode(t, client)
	// Members join after New, which would otherwise wait out the hanging
	// peer's snapshot pull and mark it down.
	if err := n.SetMembers([]Member{{ID: "self"}, {ID: "hang", URL: hangURL}, {ID: "live", URL: liveSrv.URL}}); err != nil {
		t.Fatal(err)
	}
	n.cfg.FetchTimeout = time.Second
	entries := []blockcache.WireEntry{blockEntry("a", 1), blockEntry("b", 2)}
	if _, err := srv.BlockCache().Load(bytes.NewReader(snapshotOf(t, entries...))); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		pushed int
		err    error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		pushed, err := n.Sync(ctx)
		done <- result{pushed, err}
	}()
	select {
	case <-answered:
		if took := time.Since(start); took > n.cfg.FetchTimeout {
			t.Errorf("the live peer took its push %v after Sync started, over one FetchTimeout", took)
		}
	case <-time.After(n.cfg.FetchTimeout):
		t.Errorf("the live peer received nothing within one FetchTimeout (%v) of Sync starting", n.cfg.FetchTimeout)
	}
	cancel() // ends the hanging push now instead of at its timeout
	res := <-done
	if res.err == nil || res.pushed != len(entries) {
		t.Errorf("sync = (%d, %v), want %d pushed to the live peer and the hanging one's error", res.pushed, res.err, len(entries))
	}
	if live.BlockCache().Len() != len(entries) {
		t.Errorf("the live peer holds %d entries, want %d", live.BlockCache().Len(), len(entries))
	}
	if n.sent["hang"] != 0 || n.sent["live"] == 0 {
		t.Errorf("cursors after the sync: hang %d, live %d; want the hanging one unmoved and the live one advanced", n.sent["hang"], n.sent["live"])
	}
}
