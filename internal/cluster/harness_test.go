package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/measure"
	"ios/internal/serve"
)

// HarnessConfig configures a single-process simulated cluster: N
// serve.Server instances, each behind its own cluster.Node and real TCP
// loopback listener, talking real HTTP to each other.
type HarnessConfig struct {
	// Nodes is the initial node count (>=1).
	Nodes int
	// Device and Options configure every node's server identically
	// (zero values: V100, paper defaults).
	Device  gpusim.Spec
	Options core.Options
	// LinkDelay injects a per-link latency: every HTTP request between
	// harness participants (node↔node and client→node, via Client)
	// sleeps this long before hitting the wire, so convergence and
	// throughput numbers reflect a network, not just loopback.
	LinkDelay time.Duration
	// FetchTimeout and FailureCooldown pass through to each node's Config
	// (zero = that Config's defaults).
	FetchTimeout    time.Duration
	FailureCooldown time.Duration
	// CacheSize bounds each node's schedule cache (0 =
	// serve.DefaultCacheSize); block and measurement caches are
	// unbounded, as for a fixed workload.
	CacheSize int
	// Logf receives diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// HarnessNode is one running node of a harness.
type HarnessNode struct {
	// ID is the node's member ID ("node0", "node1", ...).
	ID string
	// URL is the node's base URL on the loopback interface.
	URL string
	// Server is the serving tier; its caches are private to this node.
	Server *serve.Server
	// Node is the exchange tier.
	Node *Node

	hs     *http.Server
	cancel context.CancelFunc
	killed bool
}

// Harness is a simulated cluster in one process. Start with StartHarness;
// drive it over HTTP via Client; Close when done. Methods are for a
// single controlling goroutine (the servers themselves take arbitrary
// concurrent traffic).
type Harness struct {
	cfg    HarnessConfig
	client *http.Client
	nodes  []*HarnessNode
}

// StartHarness boots cfg.Nodes nodes, each confirmed ready via its
// GET /healthz before the next joins — the harness's membership gate.
func StartHarness(ctx context.Context, cfg HarnessConfig) (*Harness, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: harness needs at least one node")
	}
	base, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return nil, fmt.Errorf("cluster: unexpected default transport type")
	}
	h := &Harness{
		cfg:    cfg,
		client: &http.Client{Transport: &delayTransport{delay: cfg.LinkDelay, base: base.Clone()}},
	}
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := h.Join(ctx); err != nil {
			h.Close()
			return nil, err
		}
	}
	return h, nil
}

// Client returns an HTTP client that pays the harness's injected link
// latency on every request — drive all benchmark traffic through it.
func (h *Harness) Client() *http.Client { return h.client }

// Nodes returns the harness's nodes, including killed ones, in join order.
func (h *Harness) Nodes() []*HarnessNode { return h.nodes }

// Live returns the indices of nodes that have not been killed.
func (h *Harness) Live() []int {
	var out []int
	for i, hn := range h.nodes {
		if !hn.killed {
			out = append(out, i)
		}
	}
	return out
}

// Join starts one more node, updates every live node's membership list,
// and waits for the newcomer's /healthz to report ready. The joining
// node's caches start empty: every block schedule it serves warm arrives
// in the snapshot its New pulls from the first live member.
func (h *Harness) Join(ctx context.Context) (*HarnessNode, error) {
	return h.JoinWith(ctx, blockcache.NewCache())
}

// JoinWith is Join with the given block cache, as a node started on a
// block-cache file has: the entries loaded into it are its own, which its
// pushes ship.
func (h *Harness) JoinWith(ctx context.Context, bc *blockcache.Cache) (*HarnessNode, error) {
	id := fmt.Sprintf("node%d", len(h.nodes))
	cacheSize := h.cfg.CacheSize
	if cacheSize <= 0 {
		cacheSize = serve.DefaultCacheSize
	}
	srv := serve.NewServer(serve.Config{
		Device:       h.cfg.Device,
		Options:      h.cfg.Options,
		Cache:        serve.NewScheduleCache(cacheSize),
		MeasureCache: measure.NewCache(),
		BlockCache:   bc,
		Logf:         h.cfg.Logf,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hn := &HarnessNode{ID: id, URL: "http://" + lis.Addr().String(), Server: srv}
	members := make([]Member, 0, len(h.nodes)+1)
	for _, old := range h.nodes {
		members = append(members, Member{ID: old.ID, URL: old.URL})
	}
	members = append(members, Member{ID: hn.ID, URL: hn.URL})

	nodeCtx, cancel := context.WithCancel(ctx)
	hn.cancel = cancel
	node, err := New(nodeCtx, Config{
		Self:            id,
		Members:         members,
		Server:          srv,
		Client:          h.client,
		FetchTimeout:    h.cfg.FetchTimeout,
		FailureCooldown: h.cfg.FailureCooldown,
		Logf:            h.cfg.Logf,
	})
	if err != nil {
		cancel()
		lis.Close()
		return nil, err
	}
	hn.Node = node
	for _, old := range h.nodes {
		if old.killed {
			continue
		}
		if err := old.Node.SetMembers(members); err != nil {
			cancel()
			lis.Close()
			return nil, err
		}
	}
	hn.hs = &http.Server{Handler: node}
	go hn.hs.Serve(lis)
	if err := h.waitReady(ctx, hn.URL); err != nil {
		cancel()
		hn.hs.Close()
		return nil, err
	}
	h.nodes = append(h.nodes, hn)
	return hn, nil
}

// waitReady polls GET /healthz until it reports ready.
func (h *Harness) waitReady(ctx context.Context, baseURL string) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := h.client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		t := time.NewTimer(5 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("cluster: node %s never became ready: %w", baseURL, ctx.Err())
		case <-t.C:
		}
	}
}

// SyncAll runs one synchronous push round on every live node, so every
// computed entry is at every live node before the next phase — the
// deterministic stand-in for the background pusher's eventual
// convergence.
func (h *Harness) SyncAll(ctx context.Context) (int, error) {
	total := 0
	for _, hn := range h.nodes {
		if hn.killed {
			continue
		}
		pushed, err := hn.Node.Sync(ctx)
		total += pushed
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Kill abruptly stops node i's HTTP server and cancels its exchange
// context — the fail-one-node knob. Peers see connection errors and mark
// it down; the harness keeps its slot so indices stay stable.
func (h *Harness) Kill(i int) {
	hn := h.nodes[i]
	if hn.killed {
		return
	}
	hn.killed = true
	hn.cancel()
	hn.hs.Close()
}

// Close stops every node.
func (h *Harness) Close() {
	for i := range h.nodes {
		h.Kill(i)
	}
	h.client.CloseIdleConnections()
}

// delayTransport injects a fixed latency before each request reaches the
// wire — the harness's per-link network model.
type delayTransport struct {
	delay time.Duration
	base  http.RoundTripper
}

func (t *delayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.delay > 0 {
		timer := time.NewTimer(t.delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	return t.base.RoundTrip(req)
}
