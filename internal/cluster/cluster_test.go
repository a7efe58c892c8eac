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
	"ios/internal/serve"
)

// TestRingDeterministicAndBalanced: ownership is a pure function of the
// membership set — input order must not matter — and virtual nodes keep
// the split roughly even.
func TestRingDeterministicAndBalanced(t *testing.T) {
	a, err := NewRing([]string{"node0", "node1", "node2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"node2", "node0", "node1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		oa, ob := a.Owner(key), b.Owner(key)
		if oa != ob {
			t.Fatalf("key %d: owner %q vs %q with reordered members", i, oa, ob)
		}
		counts[oa]++
		owners := a.Owners(key, 3)
		if len(owners) != 3 || owners[0] != oa {
			t.Fatalf("key %d: Owners = %v, want 3 distinct starting at %q", i, owners, oa)
		}
		if owners[1] == owners[0] || owners[2] == owners[1] || owners[2] == owners[0] {
			t.Fatalf("key %d: Owners not distinct: %v", i, owners)
		}
	}
	for id, c := range counts {
		if c < keys/6 || c > keys/2+keys/10 {
			t.Errorf("unbalanced ring: %s owns %d of %d", id, c, keys)
		}
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty ring accepted")
	}
}

// TestRingJoinSuccessorIsOldOwner is the invariant the warm exchange
// leans on: when a node joins, every key it now owns was owned, in the
// old ring, by exactly the member that is its first successor in the new
// ring — so "ask the owner, then its successors" always reaches the
// pre-join holder of a warm entry.
func TestRingJoinSuccessorIsOldOwner(t *testing.T) {
	old, err := NewRing([]string{"node0", "node1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewRing([]string{"node0", "node1", "node2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 5000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		was, now := old.Owner(key), grown.Owner(key)
		if now != "node2" {
			if was != now {
				t.Fatalf("key %d moved between surviving members: %q -> %q", i, was, now)
			}
			continue
		}
		moved++
		owners := grown.Owners(key, 2)
		if owners[1] != was {
			t.Fatalf("key %d: new owner node2's successor %q, want old owner %q", i, owners[1], was)
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the joining node; ring is broken")
	}
}

// optimizeVia drives POST /optimize over the harness's HTTP client.
func optimizeVia(t *testing.T, client *http.Client, baseURL, model string, batch int) serve.OptimizeResponse {
	t.Helper()
	resp, err := postOptimize(client, baseURL, model, batch)
	if err != nil {
		t.Fatalf("optimize %s via %s: %v", model, baseURL, err)
	}
	return resp
}

func postOptimize(client *http.Client, baseURL, model string, batch int) (serve.OptimizeResponse, error) {
	var out serve.OptimizeResponse
	body, _ := json.Marshal(serve.OptimizeRequest{Model: model, Batch: batch})
	resp, err := client.Post(baseURL+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// TestClusterWarmExchangeZeroSearches: a node joining a warm fleet serves
// its first request entirely from peer-fetched block schedules — zero
// local block DP searches — and the result is bit-identical to the seed
// node's locally searched schedule.
func TestClusterWarmExchangeZeroSearches(t *testing.T) {
	ctx := context.Background()
	h, err := StartHarness(ctx, HarnessConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	seed := h.Nodes()[0]
	seedResp := optimizeVia(t, h.Client(), seed.URL, "inception-e", 1)
	if seed.Server.BlockCache().Stats().Misses == 0 {
		t.Fatal("seed node ran no block searches; test is vacuous")
	}
	if _, err := h.SyncAll(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}

	joined, err := h.Join(ctx)
	if err != nil {
		t.Fatal(err)
	}
	joinResp := optimizeVia(t, h.Client(), joined.URL, "inception-e", 1)

	bs := joined.Server.BlockCache().Stats()
	if bs.Misses != 0 {
		t.Errorf("joining node ran %d block DP searches, want 0 (remote=%d)", bs.Misses, bs.Remote)
	}
	if bs.Remote == 0 {
		t.Error("joining node fetched no block entries from peers")
	}
	ns := joined.Node.Stats()
	if ns.BlockFetchHits == 0 {
		t.Errorf("node stats report no block fetch hits: %+v", ns)
	}
	if !bytes.Equal(seedResp.Schedule, joinResp.Schedule) {
		t.Error("peer-fetched schedule is not bit-identical to the seed's local search")
	}
	if seedResp.LatencyMS != joinResp.LatencyMS {
		t.Errorf("latency diverged: seed %v vs joined %v", seedResp.LatencyMS, joinResp.LatencyMS)
	}
}

// pathLog records the path of every request the harness's shared client
// carries — node to node and test to node alike.
type pathLog struct {
	base  http.RoundTripper
	mu    sync.Mutex
	paths []string
}

func (l *pathLog) RoundTrip(req *http.Request) (*http.Response, error) {
	l.mu.Lock()
	l.paths = append(l.paths, req.URL.Path)
	l.mu.Unlock()
	return l.base.RoundTrip(req)
}

// TestClusterMeasurementsStayLocal: the exchange carries block schedules
// only. A node joining a warm fleet fetches every block from a peer and
// re-simulates the stage latencies it needs itself — no measurement is
// fetched, no peer is asked for one — and because the simulator is
// deterministic its reported latency equals the seed's bit for bit.
func TestClusterMeasurementsStayLocal(t *testing.T) {
	ctx := context.Background()
	h, err := StartHarness(ctx, HarnessConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	log := &pathLog{base: h.client.Transport}
	h.client.Transport = log

	seed := h.Nodes()[0]
	seedResp := optimizeVia(t, h.Client(), seed.URL, "inception-e", 1)
	if _, err := h.SyncAll(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for _, hn := range h.Nodes()[1:] {
		if got := hn.Server.MeasureCache().Len(); got != 0 {
			t.Errorf("sync left %d measurements on %s, want 0", got, hn.ID)
		}
	}
	joined, err := h.Join(ctx)
	if err != nil {
		t.Fatal(err)
	}
	joinResp := optimizeVia(t, h.Client(), joined.URL, "inception-e", 1)

	if bs := joined.Server.BlockCache().Stats(); bs.Misses != 0 || bs.Remote == 0 {
		t.Errorf("joining node: %d local block searches, %d peer-fetched; want 0 and some", bs.Misses, bs.Remote)
	}
	if ms := joined.Server.MeasureCache().Stats(); ms.Remote != 0 || ms.Misses == 0 {
		t.Errorf("joining node: %d measurements fetched, %d simulated; want 0 and some", ms.Remote, ms.Misses)
	}
	if seedResp.LatencyMS != joinResp.LatencyMS {
		t.Errorf("latency_ms diverged: seed %v vs joined %v", seedResp.LatencyMS, joinResp.LatencyMS)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	blockGets := 0
	for _, p := range log.paths {
		if strings.HasPrefix(p, "/cache/measure/") {
			t.Errorf("a peer was asked for a measurement: GET %s", p)
		}
		if strings.HasPrefix(p, "/cache/block/") {
			blockGets++
		}
	}
	if blockGets == 0 {
		t.Error("no block fetch crossed the logged client; the path check is vacuous")
	}
}

// TestClusterFailOneNodeFallsBackLocal: with a peer dead, fresh requests
// still succeed — bounded retry, mark the peer down, local search — and
// no client ever sees an error.
func TestClusterFailOneNodeFallsBackLocal(t *testing.T) {
	ctx := context.Background()
	h, err := StartHarness(ctx, HarnessConfig{
		Nodes:           3,
		FetchTimeout:    100 * time.Millisecond,
		FailureCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	n0 := h.Nodes()[0]
	optimizeVia(t, h.Client(), n0.URL, "fig2", 1)
	if _, err := h.SyncAll(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}

	h.Kill(1)

	// A structure nobody has yet: every candidate (including the dead
	// node) misses or errors, and the node must search locally.
	resp := optimizeVia(t, h.Client(), n0.URL, "fig2", 2)
	if resp.Batch != 2 {
		t.Fatalf("got batch %d, want 2", resp.Batch)
	}
	if n0.Server.BlockCache().Stats().Misses == 0 {
		t.Error("expected local block searches after peer death")
	}
	// The warm structure stays servable from every live node.
	for _, i := range h.Live() {
		hn := h.Nodes()[i]
		if _, err := postOptimize(h.Client(), hn.URL, "fig2", 1); err != nil {
			t.Errorf("live node %s failed a warm request after peer death: %v", hn.ID, err)
		}
	}
	if st := n0.Node.Stats(); st.PeersMarkedDown == 0 && st.BlockFetchErrors == 0 {
		t.Logf("note: dead peer was never consulted (stats %+v)", st)
	}
}

// TestClusterPlanRegistryPull: a joining node pulls the fleet's
// batch-specialization plans through GET /plans/<model>/<device>/<opts>
// instead of rebuilding them.
func TestClusterPlanRegistryPull(t *testing.T) {
	ctx := context.Background()
	h, err := StartHarness(ctx, HarnessConfig{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	seed := h.Nodes()[0]
	if err := seed.Server.WarmPlans(ctx, []string{"fig2"}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	want := seed.Server.Plans()
	if len(want) != 1 {
		t.Fatalf("seed has %d plans, want 1", len(want))
	}

	joined, err := h.Join(ctx)
	if err != nil {
		t.Fatal(err)
	}
	added, err := joined.Node.PullPlans(ctx)
	if err != nil {
		t.Fatalf("pull plans: %v", err)
	}
	if added != 1 {
		t.Fatalf("pulled %d plans, want 1", added)
	}
	got := joined.Server.LookupPlan(want[0].Model, want[0].Device, want[0].Opts)
	if got == nil {
		t.Fatal("pulled plan not registered")
	}
	if len(got.Points) != len(want[0].Points) || got.Latency[0][0] != want[0].Latency[0][0] {
		t.Error("pulled plan does not match the seed's")
	}
	// Pulling again is a no-op: everything is already registered.
	if added, err := joined.Node.PullPlans(ctx); err != nil || added != 0 {
		t.Errorf("second pull: added %d err %v, want 0 added", added, err)
	}
	// The registry 404s for unregistered plans.
	resp, err := h.Client().Get(seed.URL + "/plans/nope/nope/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing plan: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestClusterPushConvergesOwners: after Sync, each computed entry lives
// at its ring owner, so a third node's single-entry GETs hit on the first
// candidate.
func TestClusterPushConvergesOwners(t *testing.T) {
	ctx := context.Background()
	h, err := StartHarness(ctx, HarnessConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	n0 := h.Nodes()[0]
	optimizeVia(t, h.Client(), n0.URL, "fig2", 1)
	pushed, err := h.SyncAll(ctx)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if pushed == 0 {
		t.Fatal("nothing pushed: fig2's entries all hashed to the seed? (possible but wildly unlikely)")
	}
	if st := h.Nodes()[1].Node.Stats(); st.MergedBlocks == 0 {
		t.Errorf("peer merged nothing: %+v", st)
	}
	// A second sync with no new work pushes nothing (cursor advanced).
	pushed, err = h.SyncAll(ctx)
	if err != nil || pushed != 0 {
		t.Errorf("idle sync pushed %d entries (err %v), want 0", pushed, err)
	}
}

// TestClusterBackgroundPusher: Run pushes on injected ticks.
func TestClusterBackgroundPusher(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ticks := make(chan time.Time)
	h, err := StartHarness(ctx, HarnessConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	n0 := h.Nodes()[0]
	n0.Node.cfg.PushTicks = ticks
	runCtx, stopRun := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() { defer close(done); n0.Node.Run(runCtx) }()

	optimizeVia(t, h.Client(), n0.URL, "fig2", 1)
	ticks <- time.Time{}
	ticks <- time.Time{} // second tick cannot start before the first's Sync finished
	deadline := time.Now().Add(5 * time.Second)
	for h.Nodes()[1].Node.Stats().MergedBlocks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background pusher never delivered entries")
		}
		time.Sleep(time.Millisecond)
	}
	stopRun()
	<-done
}

// TestZeroConfigNodesKeepTheirOwnBlockCaches: two nodes built in one
// process over zero-config servers hold separate block caches, so neither
// node's New replaces the other's fetch hook, and each node's miss asks its
// own peer.
func TestZeroConfigNodesKeepTheirOwnBlockCaches(t *testing.T) {
	entry := blockEntry("b", 1)
	key, _ := base64.RawURLEncoding.DecodeString(entry.Key)
	var asked [2]atomic.Int64
	var nodes [2]*Node
	for i := range nodes {
		i := i
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			asked[i].Add(1)
			json.NewEncoder(w).Encode(map[string]any{"entries": []blockcache.WireEntry{entry}})
		}))
		defer peer.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		n, err := New(ctx, Config{
			Self:    "self",
			Members: []Member{{ID: "self", URL: "http://unused.invalid"}, {ID: "peer", URL: peer.URL}},
			Server:  serve.NewServer(serve.Config{}),
			Client:  peer.Client(),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	if nodes[0].Server().BlockCache() == nodes[1].Server().BlockCache() {
		t.Fatal("two zero-config servers share one block cache")
	}
	for i, n := range nodes {
		ent, claim, err := n.Server().BlockCache().GetOrBegin(nil, key)
		if err != nil || claim != nil || ent == nil {
			t.Fatalf("node %d: GetOrBegin = (%v, %v, %v), want the entry its peer holds", i, ent, claim, err)
		}
		if hits, got := n.Stats().BlockFetchHits, asked[i].Load(); hits != 1 || got != 1 {
			t.Errorf("node %d: %d fetch hits, its peer asked %d times; want 1 and 1", i, hits, got)
		}
	}
}
