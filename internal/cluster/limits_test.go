package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// TestOversizedPeerResponsesAreMisses: a peer that answers with a body
// past maxPeerBody costs a failed fetch or pull, nothing more. Every body
// below is valid JSON that echoes exactly what was asked for, so without
// the bound each one would be accepted — the padding is the only defect.
func TestOversizedPeerResponsesAreMisses(t *testing.T) {
	pad := strings.Repeat(" ", maxPeerBody+1)
	entry := blockEntry("b", 1)
	blockKey, _ := base64.RawURLEncoding.DecodeString(entry.Key)

	mux := http.NewServeMux()
	mux.HandleFunc("/cache/block/"+entry.Key, func(w http.ResponseWriter, r *http.Request) {
		body, _ := json.Marshal(map[string]any{"entries": []any{entry}})
		w.Write([]byte(pad))
		w.Write(body)
	})
	mux.HandleFunc("/plans", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(pad + "[]"))
	})
	evil := httptest.NewServer(mux)
	defer evil.Close()
	n, srv := soloNode(t, evil.Client(), Member{ID: "evil", URL: evil.URL})

	if ent, cl, err := srv.BlockCache().GetOrBegin(nil, blockKey); err != nil || cl == nil {
		t.Fatalf("block GetOrBegin = (%v, %v, %v), want a local claim after the oversized fetch", ent, cl, err)
	} else {
		cl.Abandon()
	}
	st := n.Stats()
	if st.BlockFetchHits != 0 {
		t.Fatalf("an oversized entry was accepted: %+v", st)
	}
	if st.BlockFetchMisses != 1 {
		t.Fatalf("the oversized fetch was not counted as a miss: %+v", st)
	}
	if srv.BlockCache().Len() != 0 {
		t.Fatal("an oversized response left an entry in the cache")
	}

	// The oversized answer marked the peer down; let the cooldown lapse
	// so the plan pull actually asks it.
	n.now = func() time.Time { return time.Now().Add(time.Hour) }
	if added, err := n.PullPlans(context.Background()); err == nil || added != 0 {
		t.Fatalf("PullPlans from an oversized listing = (%d, %v), want an error and nothing registered", added, err)
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
// its owner as several pushes, each under the chunk size, and the cursor
// advances: the next Sync has nothing left to ship.
func TestSyncShipsInChunks(t *testing.T) {
	_, owner := soloNode(t, nil)
	var mu sync.Mutex
	var bodies []int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		bodies = append(bodies, r.ContentLength)
		mu.Unlock()
		var preq pushRequest
		if err := json.NewDecoder(r.Body).Decode(&preq); err != nil {
			t.Errorf("push body: %v", err)
		}
		if _, err := owner.BlockCache().Merge(preq.Block); err != nil {
			t.Errorf("merge: %v", err)
		}
		w.Write([]byte("{}"))
	}))
	defer peer.Close()
	n, srv := soloNode(t, peer.Client(), Member{ID: "peer", URL: peer.URL})

	var backlog []blockcache.WireEntry
	size := 0
	for i := 0; size < 3*pushChunkBytes; i++ {
		we := blockEntry(fmt.Sprint(i), 4000)
		raw, _ := json.Marshal(we)
		size += len(raw)
		backlog = append(backlog, we)
	}
	if _, err := srv.BlockCache().Merge(backlog); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	want := len(byOwner(n.ring, "self", backlog)["peer"])
	n.mu.Unlock()

	pushed, err := n.Sync(context.Background())
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if pushed != want || owner.BlockCache().Len() != want {
		t.Errorf("pushed %d, owner holds %d, want %d (every entry the peer owns)", pushed, owner.BlockCache().Len(), want)
	}
	if again, err := n.Sync(context.Background()); err != nil || again != 0 {
		t.Errorf("second sync pushed %d (err %v), want 0: the cursor did not advance", again, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) < 2 {
		t.Errorf("backlog of %d encoded bytes went out as %d push(es), want several", size, len(bodies))
	}
	for i, b := range bodies {
		if b > pushChunkBytes {
			t.Errorf("push %d is %d bytes, over the %d chunk size", i, b, pushChunkBytes)
		}
	}
}
