package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ios/internal/blockcache"
	"ios/internal/plan"
	"ios/internal/serve"
)

// Member identifies one cluster node: a stable ID and the base URL peers
// reach it at.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Config wires one node into a cluster.
type Config struct {
	// Self is this node's Member.ID; it must appear in Members.
	Self string
	// Members is the membership list, including Self; SetMembers updates
	// it live. New pulls its snapshot from the first peer in it that
	// answers, so list the peers already serving first.
	Members []Member
	// Server is the serving tier this node fronts. The node replicates
	// the server's block cache; the measurement cache stays a node-local
	// memo.
	Server *serve.Server
	// Client issues peer requests (nil = http.DefaultClient). The
	// harness injects per-link latency here.
	Client *http.Client
	// FetchTimeout bounds one peer exchange — a snapshot pull, a push,
	// a plan pull — at four times its value (<=0 = 500ms).
	FetchTimeout time.Duration
	// FailureCooldown is how long a peer that failed a request is
	// skipped before being tried again (<=0 = 1s). It bounds the cost
	// of a dead node: one timed-out push per cooldown.
	FailureCooldown time.Duration
	// PushTicks, when non-nil, replaces Run's wall-clock ticker — the
	// injectable clock for tests.
	PushTicks <-chan time.Time
	// Logf receives diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// pushInterval is Run's period between incremental pushes.
const pushInterval = 500 * time.Millisecond

// Node is one cluster member: an http.Handler that serves the peer
// exchange endpoints in front of a serve.Server, joins by loading a
// peer's snapshot of the block cache, and pushes the entries it searched
// to every peer. Create with New; all methods are safe for concurrent use.
//
// Endpoints (everything else falls through to the serve.Server):
//
//	GET  /cluster/snapshot  the whole block cache, in the cache-file format
//	POST /cluster/push      {"block":[...]} -> count merged (413 past maxPeerBody)
//	GET  /cluster/stats     exchange counters (Stats)
type Node struct {
	cfg    Config
	server *serve.Server
	blocks *blockcache.Cache
	client *http.Client
	mux    *http.ServeMux

	// now is the clock behind peer-down cooldowns; tests substitute a fake.
	now func() time.Time

	mu    sync.Mutex
	peers []Member // guarded by mu: Members without Self, in list order
	// down maps a peer ID to the time its failure cooldown ends.
	down map[string]time.Time // guarded by mu

	// pushMu serializes Sync, so each peer's cursor moves with the pushes
	// it covers.
	pushMu sync.Mutex
	// sent is, per peer, the Own sequence point it has received up to.
	sent map[string]uint64 // guarded by pushMu

	pushedBlocks, mergedBlocks atomic.Int64 // entries shipped to / accepted from peers

	plansPulled     atomic.Int64
	peersMarkedDown atomic.Int64
}

// Stats is a snapshot of one node's exchange counters (GET /cluster/stats).
type Stats struct {
	// Always 0 since blocks replicate whole instead of being fetched per
	// key, like the measurement fields below since measurements stayed
	// node-local. Kept only because the benchmark compiles against them;
	// they go when bench/ is re-opened.
	BlockFetchHits     int64 `json:"block_fetch_hits"`
	BlockFetchMisses   int64 `json:"block_fetch_misses"`
	BlockFetchErrors   int64 `json:"block_fetch_errors"`
	MeasureFetchHits   int64 `json:"measure_fetch_hits"`
	MeasureFetchMisses int64 `json:"measure_fetch_misses"`
	MeasureFetchErrors int64 `json:"measure_fetch_errors"`
	// PushedBlocks counts entries shipped to peers by Sync; MergedBlocks
	// counts entries accepted from peers' pushes and the join snapshot.
	PushedBlocks int64 `json:"pushed_blocks"`
	MergedBlocks int64 `json:"merged_blocks"`
	// PlansPulled counts batch plans fetched from peers' registries.
	PlansPulled int64 `json:"plans_pulled"`
	// PeersMarkedDown counts failure-cooldown activations.
	PeersMarkedDown int64 `json:"peers_marked_down"`
}

// New wires a node, registers the exchange endpoints and, before it
// returns, loads the block cache of the first peer that serves its
// snapshot, so a joining node answers every block the fleet has searched
// without a search or a per-key request. A peer that fails is marked down
// and the next is tried; with none, the node starts with what it has and
// fills by its peers' pushes. ctx bounds the pull.
func New(ctx context.Context, cfg Config) (*Node, error) {
	if cfg.Server == nil {
		return nil, fmt.Errorf("cluster: Config.Server is required")
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 500 * time.Millisecond
	}
	if cfg.FailureCooldown <= 0 {
		cfg.FailureCooldown = time.Second
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	n := &Node{
		cfg:    cfg,
		server: cfg.Server,
		blocks: cfg.Server.BlockCache(),
		client: client,
		mux:    http.NewServeMux(),
		//lint:ioslint-ignore determinism peer-down cooldowns are wall-clock by design; tests substitute a fake by assigning n.now
		now:  time.Now,
		down: make(map[string]time.Time),
	}
	if err := n.SetMembers(cfg.Members); err != nil {
		return nil, err
	}
	n.mux.HandleFunc("/cluster/snapshot", n.handleSnapshot)
	n.mux.HandleFunc("/cluster/push", n.handlePush)
	n.mux.HandleFunc("/cluster/stats", n.handleStats)
	n.mux.Handle("/", cfg.Server)
	for _, p := range n.livePeers() {
		added, err := n.pullSnapshot(ctx, p.URL)
		if err == nil {
			n.mergedBlocks.Add(int64(added))
			n.logf("cluster %s: loaded %d block entries from %s's snapshot", cfg.Self, added, p.ID)
			break
		}
		n.logf("cluster %s: snapshot from %s: %v", cfg.Self, p.ID, err)
		n.markDown(p.ID)
	}
	return n, nil
}

// ServeHTTP serves the exchange endpoints and falls through to the
// underlying serve.Server for everything else.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

// Server returns the serve.Server this node fronts.
func (n *Node) Server() *serve.Server { return n.server }

// SetMembers replaces the membership list (Self must be present, IDs
// distinct). A new peer's push cursor starts at zero, so it receives every
// entry this node searched; a departed one's is dropped.
func (n *Node) SetMembers(members []Member) error {
	seen := make(map[string]bool, len(members))
	peers := make([]Member, 0, len(members))
	for _, m := range members {
		if seen[m.ID] {
			return fmt.Errorf("cluster: duplicate member %q", m.ID)
		}
		seen[m.ID] = true
		if m.ID != n.cfg.Self {
			peers = append(peers, Member{ID: m.ID, URL: strings.TrimSuffix(m.URL, "/")})
		}
	}
	if !seen[n.cfg.Self] {
		return fmt.Errorf("cluster: Self %q not in members", n.cfg.Self)
	}
	n.mu.Lock()
	n.peers = peers
	n.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the exchange counters.
func (n *Node) Stats() Stats {
	return Stats{
		PushedBlocks:    n.pushedBlocks.Load(),
		MergedBlocks:    n.mergedBlocks.Load(),
		PlansPulled:     n.plansPulled.Load(),
		PeersMarkedDown: n.peersMarkedDown.Load(),
	}
}

// livePeers returns the peers outside a failure cooldown, in list order.
func (n *Node) livePeers() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	out := make([]Member, 0, len(n.peers))
	for _, p := range n.peers {
		if !now.Before(n.down[p.ID]) {
			out = append(out, p)
		}
	}
	return out
}

// markDown starts a peer's failure cooldown.
func (n *Node) markDown(id string) {
	n.mu.Lock()
	n.down[id] = n.now().Add(n.cfg.FailureCooldown)
	n.mu.Unlock()
	n.peersMarkedDown.Add(1)
	n.logf("cluster %s: peer %s marked down for %s", n.cfg.Self, id, n.cfg.FailureCooldown)
}

// maxPeerBody bounds a peer body this node decodes (a snapshot, a plan
// listing, or a push): a lying or broken peer costs a failed pull or a
// refused push, never an unbounded buffer. It holds a snapshot of some
// 6,000 zoo-sized block entries (the whole zoo at three batches is 417);
// a larger one is refused whole, and the node fills by pushes instead.
const maxPeerBody = 4 << 20

// get issues one GET to a peer and returns the body of a 200; any other
// status is an error.
func (n *Node) get(ctx context.Context, rawurl string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawurl, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("cluster: GET %s: HTTP %d", rawurl, resp.StatusCode)
	}
	return resp.Body, nil
}

// pullSnapshot loads one peer's GET /cluster/snapshot into the block
// cache as a peer's entries (never pushed on). The body passes the same
// validation as a cache file, all or nothing.
func (n *Node) pullSnapshot(ctx context.Context, baseURL string) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, 4*n.cfg.FetchTimeout)
	defer cancel()
	body, err := n.get(ctx, baseURL+"/cluster/snapshot")
	if err != nil {
		return 0, err
	}
	defer body.Close()
	snapshot := io.LimitReader(body, maxPeerBody) //ioslint:untrusted peer HTTP snapshot body
	return n.blocks.MergeFrames(snapshot)
}

// push path ------------------------------------------------------------

// pushRequest is the POST /cluster/push body: block wire entries for the
// receiver to merge, in the cache's persisted-file entry format. A
// version-behind peer also sends a "measure" array; it is ignored.
type pushRequest struct {
	Block []blockcache.WireEntry `json:"block,omitempty"`
}

// pushResponse reports how many pushed entries were new to the receiver.
type pushResponse struct {
	BlockAdded int `json:"block_added"`
}

// pushChunkBytes is the largest encoded push body Sync sends: far enough
// under the receiver's maxPeerBody that no honest push is refused, so a
// node restarted over a large block-cache file ships it in pieces instead
// of wedging its cursor behind one oversized body.
const pushChunkBytes = maxPeerBody / 4

// Sync pushes to every live peer the block entries this node searched or
// loaded from a file (Own) since that peer's last successful push, and
// returns how many entries were shipped. Entries merged from a peer are
// never pushed on: their origin pushed them to everyone. Each peer has its
// own cursor, so a peer inside its failure cooldown is skipped without
// holding back the others, and gets its backlog once it answers again.
// Run calls this on a ticker; the harness calls it synchronously.
func (n *Node) Sync(ctx context.Context) (int, error) {
	n.pushMu.Lock()
	defer n.pushMu.Unlock()
	n.mu.Lock()
	peers := n.peers
	n.mu.Unlock()
	sent := make(map[string]uint64, len(peers))
	pushed := 0
	var errs []error
	for _, p := range peers {
		sent[p.ID] = n.sent[p.ID]
		if n.peerDown(p.ID) {
			errs = append(errs, fmt.Errorf("cluster: peer %s down", p.ID))
			continue
		}
		entries, next := n.blocks.Own(sent[p.ID])
		got, err := n.postPush(ctx, p.URL, entries)
		pushed += got
		n.pushedBlocks.Add(int64(got))
		if err != nil {
			n.markDown(p.ID)
			errs = append(errs, err)
			continue
		}
		sent[p.ID] = next
	}
	n.sent = sent
	return pushed, errors.Join(errs...)
}

// peerDown reports whether a peer is inside its failure cooldown.
func (n *Node) peerDown(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now().Before(n.down[id])
}

// postPush ships a batch to one peer, halving it until each body encodes
// to at most pushChunkBytes, and returns how many entries were delivered.
func (n *Node) postPush(ctx context.Context, baseURL string, entries []blockcache.WireEntry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	body, err := json.Marshal(pushRequest{Block: entries})
	if err != nil {
		return 0, err
	}
	if len(body) > pushChunkBytes && len(entries) > 1 {
		half := len(entries) / 2
		sent, err := n.postPush(ctx, baseURL, entries[:half])
		if err != nil {
			return sent, err
		}
		more, err := n.postPush(ctx, baseURL, entries[half:])
		return sent + more, err
	}
	ctx, cancel := context.WithTimeout(ctx, 4*n.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/cluster/push", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cluster: push to %s: HTTP %d", baseURL, resp.StatusCode)
	}
	return len(entries), nil
}

// Run pushes on a ticker until ctx ends: every pushInterval, Sync ships
// what this node searched since the last round to every live peer.
func (n *Node) Run(ctx context.Context) {
	ticks := n.cfg.PushTicks
	if ticks == nil {
		//lint:ioslint-ignore determinism the background push cadence is wall-clock by design; tests inject PushTicks
		t := time.NewTicker(pushInterval)
		defer t.Stop()
		ticks = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticks:
			if _, err := n.Sync(ctx); err != nil && ctx.Err() == nil {
				n.logf("cluster %s: push: %v", n.cfg.Self, err)
			}
		}
	}
}

// PullPlans fetches every batch plan registered on any live peer and
// registers the ones this node lacks, returning how many were added. This
// is the client side of the plan registry (GET /plans/<model>/<device>/<opts>):
// a joining node pulls the fleet's specialized plans instead of paying
// the per-batch searches and n² cross-measurements to rebuild them.
func (n *Node) PullPlans(ctx context.Context) (int, error) {
	added := 0
	var firstErr error
	for _, p := range n.livePeers() {
		got, err := n.pullPlansFrom(ctx, p.URL)
		added += got
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n.plansPulled.Add(int64(added))
	return added, firstErr
}

func (n *Node) pullPlansFrom(ctx context.Context, baseURL string) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, 4*n.cfg.FetchTimeout)
	defer cancel()
	body, err := n.get(ctx, baseURL+"/plans")
	if err != nil {
		return 0, err
	}
	var infos []serve.PlanInfo
	err = json.NewDecoder(io.LimitReader(body, maxPeerBody)).Decode(&infos) //ioslint:untrusted peer HTTP plan listing
	body.Close()
	if err != nil {
		return 0, err
	}
	added := 0
	for _, info := range infos {
		if n.server.LookupPlan(info.Model, info.Device, info.Options) != nil {
			continue
		}
		p, err := n.pullPlan(ctx, baseURL, info)
		if err != nil {
			return added, err
		}
		if err := n.server.RegisterPlan(p); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// pullPlan fetches one plan and validates the peer echoed the identity
// that was asked for: plan.Load already rejects structurally invalid
// plans, but a body whose (model, device, opts) differ from the URL
// would otherwise register under the wrong key and win every subsequent
// lookup for that key on this node.
//
//ioslint:validator
func (n *Node) pullPlan(ctx context.Context, baseURL string, info serve.PlanInfo) (*plan.Plan, error) {
	body, err := n.get(ctx, baseURL+"/plans/"+url.PathEscape(info.Model)+"/"+url.PathEscape(info.Device)+"/"+url.PathEscape(info.Options))
	if err != nil {
		return nil, err
	}
	defer body.Close()
	p, err := plan.Load(body) //ioslint:untrusted peer HTTP plan body
	if err != nil {
		return nil, err
	}
	if p.Model != info.Model || p.Device != info.Device || p.Opts != info.Options {
		return nil, fmt.Errorf("cluster: pull plan %s/%s/%s: peer returned plan %s/%s/%s", info.Model, info.Device, info.Options, p.Model, p.Device, p.Opts)
	}
	return p, nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}
