// Package mutexguard is the fixture for the mutexguard analyzer:
// `// guarded by <mu>` annotations, the *Locked naming convention, the
// freshly-constructed exemption, and prose comments that must stay inert.
package mutexguard

import "sync"

type counter struct {
	mu sync.Mutex
	// guarded by mu
	n int
	// guarded by mu
	hits int
	// The next comment names no mutex field of this struct, so it is
	// commentary, not an active annotation: guarded by the big lock.
	note string
}

func (c *counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++ // ok: mu locked in this function
	c.hits++
}

func (c *counter) Peek() int {
	return c.n // want `counter\.n is guarded by "mu" but Peek neither locks`
}

func (c *counter) peekLocked() int {
	return c.n // ok: *Locked suffix documents the caller-holds-mu precondition
}

func (c *counter) Note() string {
	return c.note // ok: the annotation was prose, no guard is active
}

func newCounter(start int) *counter {
	c := &counter{}
	c.n = start // ok: freshly constructed, not yet shared
	return c
}

type gauge struct {
	mu sync.RWMutex
	// guarded by mu
	v float64
}

func (g *gauge) Read() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v // ok: RLock is evidence too
}

func (g *gauge) Bump(d float64) {
	g.v += d // want `gauge\.v is guarded by "mu" but Bump neither locks`
}

var _ = newCounter
var _ = (*counter).Peek
var _ = (*counter).peekLocked
var _ = (*counter).Note
var _ = (*gauge).Read
var _ = (*gauge).Bump

// A generic struct's guarded field is the same field in every method,
// although each method sees its own instantiation of the receiver type.
type table[V any] struct {
	mu sync.Mutex
	m  map[string]V // guarded by mu
}

func (t *table[V]) Get(k string) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.m[k] // ok: mu locked in this function
	return v, ok
}

func (t *table[V]) Has(k string) bool {
	_, ok := t.m[k] // want `table\.m is guarded by "mu" but Has neither locks`
	return ok
}

var _ = (*table[int]).Get
var _ = (*table[int]).Has
