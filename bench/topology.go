package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ios/internal/blockcache"
	"ios/internal/cluster"
	"ios/internal/measure"
	"ios/internal/serve"
)

// newServer builds a serve.Server on the paper's defaults (V100, IOS-Both,
// r=3, s=8, Workers = GOMAXPROCS) with caches of its own: the process-wide
// shared caches would leak warm state from one round's target into the next.
func newServer() *serve.Server {
	return serve.NewServer(serve.Config{
		Cache:        serve.NewScheduleCache(serve.DefaultCacheSize),
		MeasureCache: measure.NewCache(),
		BlockCache:   blockcache.NewCache(),
	})
}

// node is one listening server: a bare serve.Server, or one fronted by a
// cluster.Node when it is part of a fleet.
type node struct {
	id      string
	srv     *serve.Server
	cl      *cluster.Node // nil outside a fleet
	url     string
	hs      *http.Server
	cancel  context.CancelFunc // ends the cluster node's lifetime context
	serving sync.WaitGroup     // witness for the Serve goroutine
}

// openPort binds a fresh loopback port and returns its base URL.
func openPort() (net.Listener, string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return lis, "http://" + lis.Addr().String(), nil
}

// serve starts answering on lis until close().
func (n *node) serve(lis net.Listener, handler http.Handler) {
	n.hs = &http.Server{Handler: handler}
	n.serving.Add(1)
	go func() {
		defer n.serving.Done()
		// Serve returns ErrServerClosed once close() runs; any other error
		// surfaces as failed requests in the next phase.
		_ = n.hs.Serve(lis)
	}()
}

// listen serves a bare serve.Server on a fresh loopback port.
func listen(srv *serve.Server) (*node, error) {
	lis, url, err := openPort()
	if err != nil {
		return nil, err
	}
	n := &node{id: "solo", srv: srv, url: url}
	n.serve(lis, srv)
	return n, nil
}

// close stops the listener and every connection and waits for Serve to
// return. Close, not Shutdown: Shutdown waits five seconds for connections the
// client dialled but never used.
func (n *node) close() {
	if n.cancel != nil {
		n.cancel()
	}
	_ = n.hs.Close() // the only error is from closing an already-closed listener
	n.serving.Wait()
}

// waitReady polls GET /healthz until the node answers 200.
func waitReady(ctx context.Context, hc *http.Client, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		t := time.NewTimer(time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("node %s never became ready: %w", url, ctx.Err())
		case <-t.C:
		}
	}
}

// peerMeter is the RoundTripper handed to every cluster node as its peer
// client: it counts node-to-node requests, bytes both ways and round-trip
// times without adding delay. (The in-tree cluster.Harness exists to inject
// link delay and cannot remove a member, so the fleet below is built on
// cluster.New and Node.SetMembers directly.)
type peerMeter struct {
	base     http.RoundTripper
	requests atomic.Int64
	bytes    atomic.Int64

	mu   sync.Mutex
	rtts []float64 // seconds; guarded by mu
}

func (m *peerMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := m.base.RoundTrip(req)
	d := time.Since(start).Seconds()
	m.requests.Add(1)
	if req.ContentLength > 0 {
		m.bytes.Add(req.ContentLength)
	}
	if err == nil {
		resp.Body = &meteredBody{resp.Body, &m.bytes}
	}
	m.mu.Lock()
	m.rtts = append(m.rtts, d)
	m.mu.Unlock()
	return resp, err
}

// meteredBody counts response bytes as the node reads them (peer responses are
// chunked, so ContentLength is unknown up front).
type meteredBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// snapshot returns the counters and the median round trip, and resets them.
func (m *peerMeter) snapshot() (requests, bytes int64, p50 float64) {
	m.mu.Lock()
	rtts := m.rtts
	m.rtts = nil
	m.mu.Unlock()
	sort.Float64s(rtts)
	return m.requests.Swap(0), m.bytes.Swap(0), percentile(rtts, 0.5)
}

// fleet is a set of coordinated nodes talking real HTTP over loopback with no
// injected delay.
type fleet struct {
	nodes  []*node
	meter  *peerMeter
	peerTr *http.Transport
	peerHC *http.Client
	next   int // next node number
}

func newFleet() *fleet {
	tr := &http.Transport{MaxIdleConnsPerHost: 16}
	m := &peerMeter{base: tr}
	return &fleet{meter: m, peerTr: tr, peerHC: &http.Client{Transport: m}}
}

func (f *fleet) members(extra ...cluster.Member) []cluster.Member {
	out := make([]cluster.Member, 0, len(f.nodes)+len(extra))
	for _, n := range f.nodes {
		out = append(out, cluster.Member{ID: n.id, URL: n.url})
	}
	return append(out, extra...)
}

// join starts one more node with empty caches, tells every node the new
// membership and waits for the newcomer's /healthz. It returns the time from
// the start of the join until the node reported ready.
func (f *fleet) join(ctx context.Context, hc *http.Client) (*node, time.Duration, error) {
	start := time.Now()
	id := fmt.Sprintf("node%d", f.next)
	f.next++
	srv := newServer()
	lis, url, err := openPort()
	if err != nil {
		return nil, 0, err
	}
	members := f.members(cluster.Member{ID: id, URL: url})
	nodeCtx, cancel := context.WithCancel(ctx)
	cl, err := cluster.New(nodeCtx, cluster.Config{Self: id, Members: members, Server: srv, Client: f.peerHC})
	if err != nil {
		cancel()
		lis.Close()
		return nil, 0, err
	}
	n := &node{id: id, srv: srv, cl: cl, url: url, cancel: cancel}
	n.serve(lis, cl)
	for _, old := range f.nodes {
		if err := old.cl.SetMembers(members); err != nil {
			n.close()
			return nil, 0, err
		}
	}
	if err := waitReady(ctx, hc, url); err != nil {
		n.close()
		return nil, 0, err
	}
	f.nodes = append(f.nodes, n)
	return n, time.Since(start), nil
}

// leave removes the most recently joined node and tells the rest.
func (f *fleet) leave() error {
	last := f.nodes[len(f.nodes)-1]
	f.nodes = f.nodes[:len(f.nodes)-1]
	var errs []error
	for _, n := range f.nodes {
		errs = append(errs, n.cl.SetMembers(f.members()))
	}
	last.close()
	return errors.Join(errs...)
}

// syncAll pushes every node's new cache entries to their ring owners until a
// whole pass ships nothing, and returns how many entries moved.
func (f *fleet) syncAll(ctx context.Context) (int, error) {
	total := 0
	for {
		pushed := 0
		for _, n := range f.nodes {
			p, err := n.cl.Sync(ctx)
			if err != nil {
				return total, fmt.Errorf("sync %s: %w", n.id, err)
			}
			pushed += p
		}
		total += pushed
		if pushed == 0 {
			return total, nil
		}
	}
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		n.close()
	}
	f.nodes = nil
	f.peerTr.CloseIdleConnections()
}
