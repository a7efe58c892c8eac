package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ios/internal/gpusim"
	"ios/internal/measure"
	"ios/internal/serve"
)

// TestStalledBodyIsDropped: a client that sends its headers and half a
// body and then goes quiet is disconnected by the server, instead of
// holding a connection, a goroutine and its half-read body for as long as
// it likes. The behaviour is checked at a test's time scale; that the
// daemon's server carries the bound at all is checked on the constant.
func TestStalledBodyIsDropped(t *testing.T) {
	srv := newHTTPServer(context.Background(), "", serve.NewServer(serve.Config{}))
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
// the fleet use round-trips a cache, skips an unset path, and starts cold
// — without failing — on a file it cannot read.
func TestCacheFileHelpers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measure.cache")
	c := measure.NewCache()
	// A stage of no streams under the V100's context; its id key in a
	// cache that has met nothing else is {context 0, 0 streams}.
	key, ok := c.Intern(nil, measure.AppendStreams(measure.Context(gpusim.TeslaV100, 0), nil))
	if !ok {
		t.Fatal("the stage cannot be keyed")
	}
	_, cl, _ := c.GetOrBegin(nil, key)
	cl.Commit(1e-6)
	saveCache(c, "node0: ", "measurements", "simulator runs", "")
	saveCache(c, "node0: ", "measurements", "simulator runs", path)
	fresh := measure.NewCache()
	loadCache(fresh, "node0: ", "measurements", "")
	if fresh.Len() != 0 {
		t.Fatal("an unset path loaded something")
	}
	loadCache(fresh, "node0: ", "measurements", path)
	if lat, ok := fresh.Lookup(key); !ok || lat != 1e-6 {
		t.Fatalf("round trip through the helpers: (%v, %v)", lat, ok)
	}
	if err := os.WriteFile(path, []byte(`{"version":1,"entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := measure.NewCache()
	loadCache(cold, "", "measurements", path)
	if cold.Len() != 0 {
		t.Fatal("a version-1 file was not a cold start")
	}
}
