package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ios/internal/blockcache"
	"ios/internal/plan"
	"ios/internal/serve"
)

// Member identifies one cluster node: a stable ID (the ring hashes it)
// and the base URL peers reach it at.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Config wires one node into a cluster.
type Config struct {
	// Self is this node's Member.ID; it must appear in Members.
	Self string
	// Members is the full membership list, including Self. Every node
	// must use the same list (ring ownership is a pure function of it);
	// SetMembers updates it live.
	Members []Member
	// Server is the serving tier this node fronts. The node shards and
	// exchanges the server's block cache and installs its fetch hook, so
	// no two nodes may be built over servers sharing one. The
	// measurement cache stays a node-local memo.
	Server *serve.Server
	// Client issues peer requests (nil = http.DefaultClient). The
	// harness injects per-link latency here.
	Client *http.Client
	// FetchTimeout bounds one peer fetch (<=0 = 500ms).
	FetchTimeout time.Duration
	// FailureCooldown is how long a peer that failed a request is
	// skipped before being probed again (<=0 = 1s). It bounds the cost
	// of a dead node: a few timed-out attempts per cooldown, with every
	// miss in between falling back to local search instantly.
	FailureCooldown time.Duration
	// PushTicks, when non-nil, replaces Run's wall-clock ticker — the
	// injectable clock for tests.
	PushTicks <-chan time.Time
	// Logf receives diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// fetchFanout is how many ring-ordered candidates a fetch tries: the
// owner plus two successors. The first successor is exactly the key's
// previous owner after a membership change, so a joining node (which owns
// part of the keyspace itself) still finds every warm entry; the rest
// cover an owner that is down.
const fetchFanout = 3

// pushInterval is Run's period between incremental pushes of locally
// computed entries to their owners.
const pushInterval = 500 * time.Millisecond

// Node is one cluster member: an http.Handler that serves the peer
// exchange endpoints in front of a serve.Server, wires the server's
// block cache to fetch missing entries from their ring owners, and pushes
// locally searched entries out. Create with New; all methods are safe for
// concurrent use.
//
// Endpoints (everything else falls through to the serve.Server):
//
//	GET  /cache/block/<fp>  one block entry, fp base64 raw-URL (404 if absent)
//	POST /cluster/push      {"block":[...]} -> count merged (413 past maxPeerBody)
//	GET  /cluster/stats     exchange counters (Stats)
type Node struct {
	cfg     Config
	server  *serve.Server
	blocks  *blockcache.Cache
	client  *http.Client
	mux     *http.ServeMux
	baseCtx context.Context

	// now is the clock behind peer-down cooldowns; tests substitute a fake.
	now func() time.Time

	mu   sync.Mutex
	ring *Ring             // guarded by mu
	urls map[string]string // guarded by mu
	// down maps a peer ID to the time its failure cooldown ends.
	down map[string]time.Time // guarded by mu

	// pushMu serializes Sync so the incremental snapshot cursor moves
	// atomically with the pushes it covers.
	pushMu    sync.Mutex
	lastBlock uint64 // guarded by pushMu

	fetchHits, fetchMisses, fetchErrors atomic.Int64 // block fetches by outcome
	pushedBlocks, mergedBlocks          atomic.Int64 // entries shipped to / accepted from peers

	plansPulled     atomic.Int64
	peersMarkedDown atomic.Int64
}

// Stats is a snapshot of one node's exchange counters (GET /cluster/stats).
type Stats struct {
	// BlockFetchHits count local block-cache misses satisfied by a peer
	// — each one is a block DP search the fleet did not repeat.
	BlockFetchHits int64 `json:"block_fetch_hits"`
	// BlockFetchMisses count fetches no candidate peer could satisfy
	// (the structure is new fleet-wide); the node searched locally.
	BlockFetchMisses int64 `json:"block_fetch_misses"`
	// BlockFetchErrors count fetch attempts that failed to transport
	// (peer down or timed out) — bounded by the failure cooldown.
	BlockFetchErrors int64 `json:"block_fetch_errors"`
	// Always zero now that measurements stay node-local; frozen bench/ compiles against them, the next benchmark issue removes them.
	MeasureFetchHits   int64 `json:"measure_fetch_hits"`
	MeasureFetchMisses int64 `json:"measure_fetch_misses"`
	MeasureFetchErrors int64 `json:"measure_fetch_errors"`
	// PushedBlocks counts entries shipped to their owners by Sync;
	// MergedBlocks counts entries accepted from peers' pushes.
	PushedBlocks int64 `json:"pushed_blocks"`
	MergedBlocks int64 `json:"merged_blocks"`
	// PlansPulled counts batch plans fetched from peers' registries.
	PlansPulled int64 `json:"plans_pulled"`
	// PeersMarkedDown counts failure-cooldown activations.
	PeersMarkedDown int64 `json:"peers_marked_down"`
}

// New wires a node: it installs the fetch hook on the server's block
// cache (so that cache must be private to this server) and registers the
// exchange endpoints. ctx is the node's lifetime — it bounds peer fetches
// issued from inside the DP hot path, which carries no request context of
// its own.
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
		cfg:     cfg,
		server:  cfg.Server,
		blocks:  cfg.Server.BlockCache(),
		client:  client,
		mux:     http.NewServeMux(),
		baseCtx: ctx,
		//lint:ioslint-ignore determinism peer-down cooldowns are wall-clock by design; tests substitute a fake by assigning n.now
		now:  time.Now,
		down: make(map[string]time.Time),
	}
	if err := n.SetMembers(cfg.Members); err != nil {
		return nil, err
	}
	n.blocks.SetFetch(n.fetchBlock)
	n.mux.HandleFunc("/cache/block/", n.handleBlockGet)
	n.mux.HandleFunc("/cluster/push", n.handlePush)
	n.mux.HandleFunc("/cluster/stats", n.handleStats)
	n.mux.Handle("/", cfg.Server)
	return n, nil
}

// ServeHTTP serves the exchange endpoints and falls through to the
// underlying serve.Server for everything else.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

// Server returns the serve.Server this node fronts.
func (n *Node) Server() *serve.Server { return n.server }

// SetMembers replaces the membership list (Self must be present). Every
// node must converge on the same list; keys whose owner changed are
// re-fetched from their old owner on first miss (the old owner is the new
// owner's ring successor), so membership changes never invalidate warm
// state.
func (n *Node) SetMembers(members []Member) error {
	ids := make([]string, 0, len(members))
	urls := make(map[string]string, len(members))
	self := false
	for _, m := range members {
		ids = append(ids, m.ID)
		urls[m.ID] = strings.TrimSuffix(m.URL, "/")
		if m.ID == n.cfg.Self {
			self = true
		}
	}
	if !self {
		return fmt.Errorf("cluster: Self %q not in members", n.cfg.Self)
	}
	ring, err := NewRing(ids, DefaultReplicas)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.ring, n.urls = ring, urls
	n.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the exchange counters.
func (n *Node) Stats() Stats {
	return Stats{
		BlockFetchHits:   n.fetchHits.Load(),
		BlockFetchMisses: n.fetchMisses.Load(),
		BlockFetchErrors: n.fetchErrors.Load(),
		PushedBlocks:     n.pushedBlocks.Load(),
		MergedBlocks:     n.mergedBlocks.Load(),
		PlansPulled:      n.plansPulled.Load(),
		PeersMarkedDown:  n.peersMarkedDown.Load(),
	}
}

// candidates returns the fetch targets for a key: up to fetchFanout ring
// owners in order, minus self and minus peers inside a failure cooldown.
func (n *Node) candidates(key []byte) []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := n.ring.Owners(key, fetchFanout)
	now := n.now()
	out := make([]Member, 0, len(ids))
	for _, id := range ids {
		if id == n.cfg.Self || now.Before(n.down[id]) {
			continue
		}
		out = append(out, Member{ID: id, URL: n.urls[id]})
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

// fetch hook -----------------------------------------------------------

// fetchBlock is the block cache's SetFetch hook: ask the key's ring owners
// for the entry before paying a local DP search. A returned entry passed
// WireEntry.Decode's validation — the same bar a persisted cache file
// meets — and must echo the fingerprint that was asked for. The hook runs
// inside the cache's singleflight claim, whose result is shared by every
// coalesced waiter and which (on the DP hot path) carries no context, so
// fetches are bounded by the node's lifetime context plus the fetch
// timeout, not by the first requester's context.
func (n *Node) fetchBlock(key []byte) (*blockcache.Entry, bool) {
	we, ok := n.fetchEntry(key) //ioslint:untrusted peer HTTP body
	if !ok {
		n.fetchMisses.Add(1)
		return nil, false
	}
	raw, ent, err := we.Decode()
	if err != nil || !bytes.Equal(raw, key) {
		n.logf("cluster %s: peer returned bad block entry: %v", n.cfg.Self, err)
		n.fetchMisses.Add(1)
		return nil, false
	}
	n.fetchHits.Add(1)
	return ent, true
}

// maxPeerBody bounds a peer body this node decodes (one wire entry, a
// plan listing, or a push): a lying or broken peer costs a failed fetch
// or a refused push, never an unbounded buffer. Well under serve's 16 MB
// request cap.
const maxPeerBody = 4 << 20

// fetchEntry asks each candidate peer once for one block entry, bounded by
// FetchTimeout; the owner-plus-two-successors fan-out is the retry. A 404
// is a definitive per-peer miss and moves straight to the next candidate;
// a peer that fails transport is marked down for the failure cooldown.
// Returns (entry, true) on a 200, false when every candidate missed or
// failed — the caller searches locally, never errors.
func (n *Node) fetchEntry(key []byte) (blockcache.WireEntry, bool) {
	var zero blockcache.WireEntry
	ctx := n.baseCtx
	if ctx.Err() != nil {
		return zero, false
	}
	fp := base64.RawURLEncoding.EncodeToString(key)
	for _, peer := range n.candidates(key) {
		entries, status, err := n.getEntries(ctx, peer.URL+"/cache/block/"+fp)
		switch {
		case err != nil:
			n.fetchErrors.Add(1)
			if ctx.Err() != nil {
				return zero, false
			}
			n.markDown(peer.ID)
		case status == http.StatusOK && len(entries) > 0:
			return entries[0], true
		case status != http.StatusNotFound:
			n.fetchErrors.Add(1)
		}
	}
	return zero, false
}

// getEntries performs one GET of a wire-entry response, decoding at most
// maxPeerBody bytes of it; the caller validates what comes back.
func (n *Node) getEntries(ctx context.Context, rawurl string) ([]blockcache.WireEntry, int, error) {
	ctx, cancel := context.WithTimeout(ctx, n.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawurl, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, resp.StatusCode, nil
	}
	var body struct {
		Entries []blockcache.WireEntry `json:"entries"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxPeerBody)).Decode(&body); err != nil {
		return nil, 0, err
	}
	return body.Entries, resp.StatusCode, nil
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

// Sync pushes every block entry published since the last successful Sync
// to its ring owner (batched per owner), returning how many entries were
// shipped. Peers inside a failure cooldown are skipped and the cursor is
// not advanced past a failed round, so missed entries are re-pushed next
// time — Merge on the receiver deduplicates. Run calls this on a ticker;
// the harness calls it synchronously to hand a warm keyspace to its
// owners before a join.
func (n *Node) Sync(ctx context.Context) (int, error) {
	n.pushMu.Lock()
	defer n.pushMu.Unlock()
	entries, next := n.blocks.Snapshot(n.lastBlock)
	n.mu.Lock()
	ring, urls := n.ring, n.urls
	n.mu.Unlock()
	batches := byOwner(ring, n.cfg.Self, entries)
	owners := make([]string, 0, len(batches))
	for id := range batches {
		owners = append(owners, id)
	}
	sort.Strings(owners)
	pushed := 0
	var firstErr error
	for _, id := range owners {
		if n.peerDown(id) {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: peer %s down", id)
			}
			continue
		}
		sent, err := n.postPush(ctx, urls[id], batches[id])
		pushed += sent
		n.pushedBlocks.Add(int64(sent))
		if err != nil {
			n.markDown(id)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr == nil {
		n.lastBlock = next
	}
	return pushed, firstErr
}

// byOwner groups snapshot entries by the peer that owns them on the ring;
// entries this node owns itself stay put.
func byOwner(ring *Ring, self string, entries []blockcache.WireEntry) map[string][]blockcache.WireEntry {
	out := make(map[string][]blockcache.WireEntry)
	for _, we := range entries {
		raw, err := base64.RawURLEncoding.DecodeString(we.Key)
		if err != nil {
			continue // cannot happen for our own snapshot
		}
		if owner := ring.Owner(raw); owner != self {
			out[owner] = append(out[owner], we)
		}
	}
	return out
}

// peerDown reports whether a peer is inside its failure cooldown.
func (n *Node) peerDown(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now().Before(n.down[id])
}

// postPush ships one owner's batch, halving it until each body encodes to
// at most pushChunkBytes, and returns how many entries were delivered.
func (n *Node) postPush(ctx context.Context, baseURL string, entries []blockcache.WireEntry) (int, error) {
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

// Run pushes incrementally on a ticker until ctx ends. Fetches already
// work without it (pulls find entries at their owners or fall back), but
// the pusher is what converges owners on the canonical copy of their key
// range so later fetches hit on the first candidate.
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

// PullPlans fetches every batch plan registered on any peer and registers
// the ones this node lacks, returning how many were added. This is the
// client side of the plan registry (GET /plans/<model>/<device>/<opts>):
// a joining node pulls the fleet's specialized plans instead of paying
// the per-batch searches and n² cross-measurements to rebuild them.
func (n *Node) PullPlans(ctx context.Context) (int, error) {
	n.mu.Lock()
	members := n.ring.Members()
	urls := make(map[string]string, len(members))
	for _, id := range members {
		urls[id] = n.urls[id]
	}
	n.mu.Unlock()
	added := 0
	var firstErr error
	for _, id := range members {
		if id == n.cfg.Self || n.peerDown(id) {
			continue
		}
		got, err := n.pullPlansFrom(ctx, urls[id])
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/plans", nil)
	if err != nil {
		return 0, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, err
	}
	var infos []serve.PlanInfo
	err = json.NewDecoder(io.LimitReader(resp.Body, maxPeerBody)).Decode(&infos) //ioslint:untrusted peer HTTP plan listing
	resp.Body.Close()
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
// lookup for that key on this node — the same identity-echo bar the
// fetch hook applies with bytes.Equal(raw, key).
//
//ioslint:validator
func (n *Node) pullPlan(ctx context.Context, baseURL string, info serve.PlanInfo) (*plan.Plan, error) {
	u := baseURL + "/plans/" + url.PathEscape(info.Model) + "/" + url.PathEscape(info.Device) + "/" + url.PathEscape(info.Options)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cluster: pull plan %s/%s/%s: HTTP %d", info.Model, info.Device, info.Options, resp.StatusCode)
	}
	p, err := plan.Load(resp.Body) //ioslint:untrusted peer HTTP plan body
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
