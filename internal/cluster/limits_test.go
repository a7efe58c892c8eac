package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ios/internal/blockcache"
	"ios/internal/measure"
	"ios/internal/serve"
)

// TestOversizedPeerResponsesAreMisses: a peer that answers with a body
// past maxPeerBody costs a failed fetch or pull, nothing more. Every body
// below is valid JSON that echoes exactly what was asked for, so without
// the bound each one would be accepted — the padding is the only defect.
func TestOversizedPeerResponsesAreMisses(t *testing.T) {
	pad := strings.Repeat(" ", maxPeerBody+1)
	blockKey := []byte{blockcache.KeyVersion, 'b'}
	measureKey := []byte{measure.KeyVersion, 'm'}
	fp := base64.RawURLEncoding.EncodeToString

	mux := http.NewServeMux()
	serveEntry := func(path string, entry any) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			body, _ := json.Marshal(map[string]any{"entries": []any{entry}})
			w.Write([]byte(pad))
			w.Write(body)
		})
	}
	serveEntry("/cache/block/"+fp(blockKey), blockcache.WireEntry{
		Key: fp(blockKey), Ops: 1, States: 1, Transitions: 1,
		Stages: []blockcache.WireStage{{Strategy: "concurrent", Groups: [][]int{{0}}}},
	})
	serveEntry("/cache/measure/"+fp(measureKey), measure.WireEntry{Key: fp(measureKey), Latency: 1e-6})
	mux.HandleFunc("/plans", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(pad + "[]"))
	})
	evil := httptest.NewServer(mux)
	defer evil.Close()

	srv := serve.NewServer(serve.Config{
		Cache:        serve.NewScheduleCache(8),
		MeasureCache: measure.NewCache(),
		BlockCache:   blockcache.NewCache(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n, err := New(ctx, Config{
		Self:         "self",
		Members:      []Member{{ID: "self", URL: "http://unused.invalid"}, {ID: "evil", URL: evil.URL}},
		Server:       srv,
		Client:       evil.Client(),
		FetchTimeout: 5 * time.Second,
		Retries:      0,
	})
	if err != nil {
		t.Fatal(err)
	}

	if ent, cl, err := srv.BlockCache().GetOrBegin(nil, blockKey); err != nil || cl == nil {
		t.Fatalf("block GetOrBegin = (%v, %v, %v), want a local claim after the oversized fetch", ent, cl, err)
	} else {
		cl.Abandon()
	}
	if lat, cl, err := srv.MeasureCache().GetOrBegin(nil, measureKey); err != nil || cl == nil {
		t.Fatalf("measure GetOrBegin = (%v, %v, %v), want a local claim after the oversized fetch", lat, cl, err)
	} else {
		cl.Abandon()
	}
	st := n.Stats()
	if st.BlockFetchHits != 0 || st.MeasureFetchHits != 0 {
		t.Fatalf("an oversized entry was accepted: %+v", st)
	}
	if st.BlockFetchMisses != 1 || st.MeasureFetchMisses != 1 {
		t.Fatalf("oversized fetches were not counted as misses: %+v", st)
	}
	if srv.BlockCache().Len() != 0 || srv.MeasureCache().Len() != 0 {
		t.Fatal("an oversized response left entries in a cache")
	}

	// The first oversized answer marked the peer down; let the cooldown
	// lapse so the plan pull actually asks it.
	n.now = func() time.Time { return time.Now().Add(time.Hour) }
	if added, err := n.PullPlans(ctx); err == nil || added != 0 {
		t.Fatalf("PullPlans from an oversized listing = (%d, %v), want an error and nothing registered", added, err)
	}
}
