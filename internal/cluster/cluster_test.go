package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
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
// its first request entirely from the block schedules in the snapshot it
// loaded — zero local block DP searches — and the result is bit-identical
// to the seed node's locally searched schedule.
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
		t.Errorf("joining node ran %d block DP searches, want 0 (loaded=%d)", bs.Misses, bs.Loaded)
	}
	if bs.Loaded == 0 {
		t.Error("joining node loaded no block entries from a peer")
	}
	ns := joined.Node.Stats()
	if ns.MergedBlocks != bs.Loaded {
		t.Errorf("node stats report %d merged blocks, the cache loaded %d: %+v", ns.MergedBlocks, bs.Loaded, ns)
	}
	if !bytes.Equal(seedResp.Schedule, joinResp.Schedule) {
		t.Error("the snapshot's schedule is not bit-identical to the seed's local search")
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
// only. A node joining a warm fleet loads every block in one snapshot and
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

	if bs := joined.Server.BlockCache().Stats(); bs.Misses != 0 || bs.Loaded == 0 {
		t.Errorf("joining node: %d local block searches, %d loaded from a peer; want 0 and some", bs.Misses, bs.Loaded)
	}
	if ms := joined.Server.MeasureCache().Stats(); ms.Remote != 0 || ms.Misses == 0 {
		t.Errorf("joining node: %d measurements fetched, %d simulated; want 0 and some", ms.Remote, ms.Misses)
	}
	if seedResp.LatencyMS != joinResp.LatencyMS {
		t.Errorf("latency_ms diverged: seed %v vs joined %v", seedResp.LatencyMS, joinResp.LatencyMS)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	snapshots := 0
	for _, p := range log.paths {
		if strings.HasPrefix(p, "/cache/measure/") {
			t.Errorf("a peer was asked for a measurement: GET %s", p)
		}
		if p == "/cluster/snapshot" {
			snapshots++
		}
	}
	if snapshots != 1 {
		t.Errorf("%d snapshot pulls crossed the logged client, want the joiner's one", snapshots)
	}
}

// TestClusterFailOneNodeFallsBackLocal: with a peer dead, fresh requests
// still succeed with a local search and no client ever sees an error; the
// push that follows marks the dead peer down without holding back the
// live one, which then serves the new structure without a search.
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

	n0, n2 := h.Nodes()[0], h.Nodes()[2]
	optimizeVia(t, h.Client(), n0.URL, "fig2", 1)
	if _, err := h.SyncAll(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}

	h.Kill(1)

	// A structure nobody has yet: the node searches it locally.
	resp := optimizeVia(t, h.Client(), n0.URL, "fig2", 2)
	if resp.Batch != 2 {
		t.Fatalf("got batch %d, want 2", resp.Batch)
	}
	if n0.Server.BlockCache().Stats().Misses == 0 {
		t.Error("expected local block searches after peer death")
	}
	if _, err := n0.Node.Sync(ctx); err == nil {
		t.Error("a push to the dead peer reported no error")
	}
	if st := n0.Node.Stats(); st.PeersMarkedDown == 0 {
		t.Errorf("the dead peer was not marked down: %+v", st)
	}
	// Both structures stay servable from every live node; the live peer
	// got the new one despite the dead one.
	before := n2.Server.BlockCache().Stats().Misses
	for _, i := range h.Live() {
		hn := h.Nodes()[i]
		for _, batch := range []int{1, 2} {
			if _, err := postOptimize(h.Client(), hn.URL, "fig2", batch); err != nil {
				t.Errorf("live node %s failed fig2 at batch %d after peer death: %v", hn.ID, batch, err)
			}
		}
	}
	if got := n2.Server.BlockCache().Stats().Misses; got != before {
		t.Errorf("the live peer searched %d blocks, want 0: the push past the dead peer did not reach it", got-before)
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

// TestClusterPushConvergesOwners: Sync ships each entry the seed searched
// to every peer, once: one seed search on a three-node fleet moves exactly
// twice the seed's entries, the peers push none of them back, and a second
// round moves nothing.
func TestClusterPushConvergesOwners(t *testing.T) {
	ctx := context.Background()
	h, err := StartHarness(ctx, HarnessConfig{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	n0 := h.Nodes()[0]
	optimizeVia(t, h.Client(), n0.URL, "fig2", 1)
	seeded := n0.Server.BlockCache().Len()
	if seeded == 0 {
		t.Fatal("the seed search cached no block entries")
	}
	pushed, err := h.SyncAll(ctx)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if pushed != 2*seeded {
		t.Errorf("one round pushed %d entries, want %d (the seed's %d, to each of two peers)", pushed, 2*seeded, seeded)
	}
	for _, hn := range h.Nodes()[1:] {
		if got := hn.Server.BlockCache().Len(); got != seeded {
			t.Errorf("%s holds %d block entries, want the seed's %d", hn.ID, got, seeded)
		}
		if st := hn.Node.Stats(); st.MergedBlocks != int64(seeded) {
			t.Errorf("%s merged %d entries, want %d: %+v", hn.ID, st.MergedBlocks, seeded, st)
		}
	}
	// A second round with no new work pushes nothing (cursors advanced,
	// merged entries are not echoed).
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
// process over zero-config servers hold separate block caches, so each
// node's snapshot pull fills its own cache from its own peer.
func TestZeroConfigNodesKeepTheirOwnBlockCaches(t *testing.T) {
	entry := blockEntry("b", 1)
	key, _ := base64.RawURLEncoding.DecodeString(entry.Key)
	snapshot := snapshotOf(t, entry)
	var asked [2]atomic.Int64
	var nodes [2]*Node
	for i := range nodes {
		i := i
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			asked[i].Add(1)
			w.Write(snapshot)
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
			t.Fatalf("node %d: GetOrBegin = (%v, %v, %v), want the entry its peer's snapshot holds", i, ent, claim, err)
		}
		if merged, got := n.Stats().MergedBlocks, asked[i].Load(); merged != 1 || got != 1 {
			t.Errorf("node %d: %d entries merged, its peer asked %d times; want 1 and 1", i, merged, got)
		}
	}
}

// snapshotOf is a GET /cluster/snapshot body holding the given entries.
func snapshotOf(t *testing.T, entries ...blockcache.WireEntry) []byte {
	t.Helper()
	c := blockcache.NewCache()
	if _, err := c.Merge(entries); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHangingPeerCannotStallASearch: a member that accepts connections and
// never answers costs a cold search on another node nothing — the search
// sends it no request and finishes far inside the peer timeout.
func TestHangingPeerCannotStallASearch(t *testing.T) {
	hang, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := hang.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	defer func() {
		hang.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()

	ctx := context.Background()
	const timeout = 10 * time.Second
	h, err := StartHarness(ctx, HarnessConfig{Nodes: 2, FetchTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	members := []Member{{ID: "hang", URL: "http://" + hang.Addr().String()}}
	for _, hn := range h.Nodes() {
		members = append(members, Member{ID: hn.ID, URL: hn.URL})
	}
	for _, hn := range h.Nodes() {
		if err := hn.Node.SetMembers(members); err != nil {
			t.Fatal(err)
		}
	}

	n1 := h.Nodes()[1]
	start := time.Now()
	optimizeVia(t, h.Client(), n1.URL, "fig2", 1)
	if took := time.Since(start); took > timeout/10 {
		t.Errorf("a cold search took %v beside a hanging peer, want far under its %v timeout", took, timeout)
	}
	if n1.Server.BlockCache().Stats().Misses == 0 {
		t.Error("the node ran no block search; the test is vacuous")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) != 0 {
		t.Errorf("the hanging peer got %d connections during a cold search, want 0", len(conns))
	}
}

// TestSameColdKeyOnTwoNodesAtOnce is the price of replication: a structure
// two nodes are asked for before either has pushed it is searched by both.
// Both answer 200 with the same bytes, since the search is deterministic.
func TestSameColdKeyOnTwoNodesAtOnce(t *testing.T) {
	ctx := context.Background()
	h, err := StartHarness(ctx, HarnessConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	var wg sync.WaitGroup
	var resps [2]serve.OptimizeResponse
	var errs [2]error
	for i, hn := range h.Nodes() {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			resps[i], errs[i] = postOptimize(h.Client(), url, "inception-e", 1)
		}(i, hn.URL)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if !bytes.Equal(resps[0].Schedule, resps[1].Schedule) || resps[0].LatencyMS != resps[1].LatencyMS {
		t.Error("two nodes searching the same cold key answered differently")
	}
	var searched [2]int64
	for i, hn := range h.Nodes() {
		searched[i] = hn.Server.BlockCache().Stats().Misses
	}
	t.Logf("block searches: node0 %d, node1 %d (%d distinct blocks)", searched[0], searched[1], h.Nodes()[0].Server.BlockCache().Len())
}
