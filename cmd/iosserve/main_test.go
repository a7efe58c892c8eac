package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ios/internal/blockcache"
	"ios/internal/gpusim"
	"ios/internal/serve"
)

// TestDaemonLifecycle drives run, the daemon's one lifecycle, as a fleet
// of one and of three on ephemeral loopback listeners. Node 0 warms
// SqueezeNet; every node turns ready; a fleet's other nodes answer with
// node 0's schedule bytes from block schedules pushed to them over the
// addresses the listeners advertise, not from searches of their own; a single node
// has no exchange endpoints; and cancelling the context returns nil, stops
// every goroutine run started and leaves each node's caches saved under
// its own file name.
func TestDaemonLifecycle(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) { testLifecycle(t, n) })
	}
}

func testLifecycle(t *testing.T, n int) {
	dir := t.TempDir()
	cfg := config{
		serve:       serve.Config{Device: gpusim.TeslaV100},
		blockFile:   filepath.Join(dir, "block.cache"),
		planDir:     filepath.Join(dir, "plans"),
		warm:        "squeezenet",
		warmNames:   []string{"squeezenet"},
		warmBatches: []int{1},
	}
	client := &http.Client{Transport: &http.Transport{}}
	baseline := runtime.NumGoroutine()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], urls[i] = lis, "http://"+lis.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, listeners) }()

	call := func(method, url, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	for i, u := range urls {
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
			if code, _ := call(http.MethodGet, u+"/healthz", ""); code == http.StatusOK {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("node %d: /healthz %d after a minute", i, code)
			}
		}
	}

	var seed serve.OptimizeResponse
	for i, u := range urls {
		code, body := call(http.MethodPost, u+"/optimize", `{"model": "squeezenet"}`)
		var resp serve.OptimizeResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			t.Fatalf("node %d: /optimize %d: %s", i, code, body)
		}
		if i == 0 {
			seed = resp
		} else if !bytes.Equal(resp.Schedule, seed.Schedule) {
			t.Errorf("node %d's schedule differs from node 0's", i)
		}
	}
	if n == 1 {
		if code, _ := call(http.MethodGet, urls[0]+"/cluster/stats", ""); code != http.StatusNotFound {
			t.Errorf("a single node answers /cluster/stats with %d, want 404", code)
		}
	}
	for i := 1; i < n; i++ {
		var st serve.StatsResponse
		if code, body := call(http.MethodGet, urls[i]+"/stats", ""); code != http.StatusOK || json.Unmarshal(body, &st) != nil {
			t.Fatalf("node %d: /stats %d: %s", i, code, body)
		}
		if st.BlockCache.Misses != 0 {
			t.Errorf("node %d searched %d blocks itself, want every one from the fleet", i, st.BlockCache.Misses)
		}
		if st.BlockCache.Loaded == 0 {
			t.Errorf("node %d received no block from a peer: %+v", i, st.BlockCache)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
	client.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after run returned, %d before it started", runtime.NumGoroutine(), baseline)
		}
	}

	for i := 0; i < n; i++ {
		bf := cfg.blockFile
		if n > 1 {
			bf = nodeFile(bf, i)
		}
		if got, err := blockcache.NewCache().LoadFile(bf); err != nil || got == 0 {
			t.Errorf("node %d: %s reloads %d block schedules: %v", i, bf, got, err)
		}
	}
	if _, err := os.Stat(nodeFile(cfg.blockFile, 0)); (n == 1) != os.IsNotExist(err) {
		t.Errorf("nodes=%d: %s exists = %v", n, nodeFile(cfg.blockFile, 0), err == nil)
	}
}

// TestStalledBodyIsDropped: a client that sends its headers and half a
// body and then goes quiet is disconnected by the server, instead of
// holding a connection, a goroutine and its half-read body for as long as
// it likes. The behaviour is checked at a test's time scale; that the
// daemon's server carries the bound at all is checked on the constant.
func TestStalledBodyIsDropped(t *testing.T) {
	srv := newHTTPServer(context.Background(), serve.NewServer(serve.Config{}))
	if srv.ReadTimeout != readTimeout || readTimeout <= 0 || readTimeout < srv.ReadHeaderTimeout {
		t.Fatalf("ReadTimeout = %v, want the readTimeout constant (%v), at least the header timeout", srv.ReadTimeout, readTimeout)
	}
	srv.ReadHeaderTimeout, srv.ReadTimeout = 100*time.Millisecond, 200*time.Millisecond
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const body = `{"model": "inception_v3", "batch": 1}`
	if _, err := fmt.Fprintf(conn, "POST /optimize HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	// ...and never the other half. Whatever the server answers, it must
	// then close: ReadAll returns at EOF, or fails at our own deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("the server kept a connection stalled mid-body open for %v: %v", time.Since(start), err)
	}
}

// TestCacheFileHelpers: the one load/save pair both the single node and
// the fleet use round-trips a block cache, skips an unset path, and
// starts cold — without failing — on a file it cannot read.
func TestCacheFileHelpers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "block.cache")
	// One stage holding the single operator of a one-operator block.
	entry := blockcache.WireEntry{
		Key: base64.RawURLEncoding.EncodeToString([]byte{blockcache.KeyVersion, 'b'}),
		Ops: 1, States: 1, Transitions: 1,
		Stages: []blockcache.WireStage{{Strategy: "concurrent", Groups: [][]int{{0}}}},
	}
	c := blockcache.NewCache()
	if _, err := c.Merge([]blockcache.WireEntry{entry}); err != nil {
		t.Fatal(err)
	}
	saveCache(c, "node0: ", "")
	saveCache(c, "node0: ", path)
	fresh := blockcache.NewCache()
	loadCache(fresh, "node0: ", "")
	if fresh.Len() != 0 {
		t.Fatal("an unset path loaded something")
	}
	loadCache(fresh, "node0: ", path)
	if fresh.Len() != 1 {
		t.Fatalf("round trip through the helpers holds %d entries, want 1", fresh.Len())
	}
	if err := os.WriteFile(path, []byte(`{"version":1,"entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := blockcache.NewCache()
	loadCache(cold, "", path)
	if cold.Len() != 0 {
		t.Fatal("a version-1 file was not a cold start")
	}
}
