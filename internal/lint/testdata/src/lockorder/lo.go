// Package lockorder exercises the lock-order analyzer: ordering cycles,
// blocking operations under a held mutex, transitive same-package
// expansion, local-closure resolution, and the lockorder-allow
// exemption.
package lockorder

import (
	"net/http"
	"sync"
	"time"
	"unsafe"
)

// pair's two locks are taken in both orders across its methods — the
// classic interleaving deadlock.
type pair struct {
	a sync.Mutex
	b sync.Mutex
}

func (p *pair) ab() {
	p.a.Lock()
	p.b.Lock() // want `lock-order cycle: pair\.a → pair\.b`
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) ba() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

// fetcher performs blocking work in various positions relative to its
// lock.
type fetcher struct {
	mu   sync.Mutex
	hook func(string) string
	ch   chan int
}

func (f *fetcher) slow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	http.Get("http://peer") // want `HTTP round-trip \(http\.Get\) while holding fetcher\.mu`
}

func (f *fetcher) send() {
	f.mu.Lock()
	f.ch <- 1 // want `channel send while holding fetcher\.mu`
	f.mu.Unlock()
}

func (f *fetcher) hookCall() {
	f.mu.Lock()
	f.hook("x") // want `call through function value f\.hook while holding fetcher\.mu`
	f.mu.Unlock()
}

// viaCallee blocks transitively: the same-package callee's channel
// receive surfaces at this call site.
func (f *fetcher) viaCallee() {
	f.mu.Lock()
	f.wait() // want `channel receive \(inside wait\) while holding fetcher\.mu`
	f.mu.Unlock()
}

func (f *fetcher) wait() {
	<-f.ch
}

// localOK calls a pure local closure under the lock: resolved by its
// body instead of treated as an opaque (assumed-blocking) hook.
func (f *fetcher) localOK() int {
	add := func(x int) int { return x + 1 }
	f.mu.Lock()
	n := add(1)
	f.mu.Unlock()
	return n
}

// viewOK calls package unsafe's builtins under the lock: builtins, not
// function values.
func (f *fetcher) viewOK(b []byte) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// allowed documents a deliberate block under the lock; the directive is
// consumed, so neither the sleep nor a stale-allow is reported.
//
//ioslint:lockorder-allow fetcher.mu the sleep under the lock is this fixture's point
func (f *fetcher) allowed() {
	f.mu.Lock()
	time.Sleep(time.Millisecond)
	f.mu.Unlock()
}

// released blocks only after the unlock — the held set is empty.
func (f *fetcher) released() {
	f.mu.Lock()
	f.mu.Unlock()
	<-f.ch
}

// Generic code: a method of a generic type and an explicitly
// instantiated generic function are followed like any same-package
// callee, not skipped or mistaken for opaque function values.
type slot[V any] struct {
	mu sync.Mutex
	ch chan V
}

func (s *slot[V]) recv() V { return <-s.ch }

func drain[V any](ch chan V) { <-ch }

func (s *slot[V]) viaMethod() V {
	s.mu.Lock()
	v := s.recv() // want `channel receive \(inside recv\) while holding slot\.mu`
	s.mu.Unlock()
	return v
}

func (s *slot[V]) viaInstantiatedFunc() {
	s.mu.Lock()
	drain[V](s.ch) // want `channel receive \(inside drain\) while holding slot\.mu`
	s.mu.Unlock()
}
