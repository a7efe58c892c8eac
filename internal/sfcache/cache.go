//ioslint:deterministic

// Package sfcache is the one singleflight cache core behind the stage
// measurement cache (internal/measure) and the whole-block schedule cache
// (internal/blockcache): a concurrent, sharded, capacity-bounded map from
// canonical fingerprint to an immutable, always-recomputable value, with
// claim/Commit/Abandon deduplication, a fetch hook that runs inside the
// claim (Core), and one persistence and peer-exchange path (persist.go:
// the cache-file frames, and Cache, a Core whose keys are their own wire
// form). blockcache instantiates Cache with its value type and a Codec
// for its wire entry; measure, whose in-memory keys are ids into a
// dictionary it owns, composes Core and the frame functions itself.
// Everything with a shard mutex in it lives here.
package sfcache

import (
	"errors"
	"sync"
	"sync/atomic"
)

// shardCount spreads the cache over independently locked shards so the DP
// engine's worker pool, parallel block searches and concurrent serving
// requests rarely contend on one mutex. Power of two; the key hash below
// takes its top shardBits bits.
const (
	shardBits  = 5
	shardCount = 1 << shardBits
)

// ErrCancelled is returned by GetOrBegin when the caller's done channel
// closes while it waits on another goroutine's in-flight fill.
var ErrCancelled = errors.New("sfcache: wait cancelled")

// Core is a concurrent, sharded, deduplicating map from canonical
// fingerprint to a completed value of type V — the cache without a wire
// form. Cache (persist.go) adds a codec to it; a package whose in-memory
// keys are not its wire keys (internal/measure) composes Core with
// Cut, InsertRows and the frame functions itself.
//
// Lookups are singleflight per key: the first goroutine to miss claims the
// fingerprint and computes while concurrent requesters for the same key
// wait until that one result is published, so a fingerprint is never
// computed twice no matter how many goroutines race to it. Values are
// exact outputs of deterministic computations, so there is nothing to
// invalidate: the cache only grows, up to its capacity. Safe for use from
// any number of goroutines.
//
// The zero value is not usable; call NewCore.
type Core[V any] struct {
	shards [shardCount]shard[V]
	// perShardCap bounds each shard's resident entries (0 = unbounded):
	// values are always recomputable, so a full shard sheds arbitrary
	// completed entries rather than maintaining LRU bookkeeping on the
	// lookup hot path. In-flight claims are never evicted.
	perShardCap int

	// size counts completed entries (maintained by Commit, insert and
	// trim) so Len/Stats never scan the shards — /stats polls them on a
	// hot cache.
	size      atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	loaded    atomic.Int64
	evicted   atomic.Int64
	remote    atomic.Int64

	// seq is the publication counter behind Snapshot's incremental
	// export: every completed cell is stamped with seq+1 at publication
	// time, always under its shard mutex, so a Snapshot holding every
	// shard mutex observes exactly the cells stamped ≤ its counter read.
	seq atomic.Uint64

	// fetch, when set, is consulted on a miss — with the claim already
	// held, so concurrent requesters coalesce onto one remote fetch just
	// as they would onto one computation. See SetFetch.
	fetch func(key []byte) (V, bool)
}

type shard[V any] struct {
	mu sync.Mutex
	m  map[string]*cell[V] // guarded by mu
	// waits holds the wake-up channel of each in-flight cell that a second
	// requester is actually parked on: allocated by the first waiter,
	// closed and removed by Commit/Abandon. Keeping it out of the cell
	// means an uncontended fill (and every Merge/Load insert) never
	// allocates a channel, and a float64 cell stays pointer-free.
	waits map[*cell[V]]chan struct{} // guarded by mu
}

// Cell states. A cell found in a shard map is pending or done; abandoned
// cells have already been removed and are seen only by their waiters.
const (
	cellPending uint8 = iota
	cellDone
	cellAbandoned
)

// cell is one fingerprint's slot. state and seq are written only under
// the owning shard's mutex. val is written by the claim holder before it
// publishes state=cellDone under that mutex and never again, so whoever
// observes cellDone — under the mutex, or after the cell's wait channel
// closes — reads a complete value without further locking.
type cell[V any] struct {
	state uint8
	val   V
	// seq is the publication stamp (see Cache.seq).
	seq uint64
}

// Claim is an exclusive lease on one missing fingerprint, returned by
// GetOrBegin: the holder must compute the value and call Commit — or, if
// the computation fails for any reason, Abandon — exactly once (every
// other goroutine asking for the same key waits on it until then).
type Claim[V any] struct {
	c   *Core[V]
	sh  *shard[V]
	key string
	e   *cell[V]
}

// Commit publishes the completed value and releases the claim. The value
// is shared with every current and future reader and must not be mutated
// afterwards.
func (cl *Claim[V]) Commit(v V) {
	cl.e.val = v
	cl.finish(cellDone)
	cl.c.size.Add(1)
}

// Abandon releases the claim without publishing a result: the cell is
// removed from the cache (so the fingerprint stays computable) and blocked
// waiters retry the key instead of reading a missing value. Call it when
// the computation cannot complete — a cancelled context, an error, a
// panicking backend — or the fingerprint would stay wedged forever for
// every future requester of a shared cache.
func (cl *Claim[V]) Abandon() { cl.finish(cellAbandoned) }

// finish moves the claim's cell to its final state and wakes the waiters,
// if any ever arrived.
//
// A commit's sequence stamp and done state are set together under the
// shard mutex so Snapshot (which holds every shard mutex) sees a
// consistent cut: a cell is visible to a snapshot if and only if its stamp
// is ≤ the snapshot's counter read. Nothing blocks while holding a shard
// mutex, so the brief lock cannot deadlock.
func (cl *Claim[V]) finish(state uint8) {
	e, sh := cl.e, cl.sh
	sh.mu.Lock()
	if state == cellDone {
		e.seq = cl.c.seq.Add(1)
	} else if sh.m[cl.key] == e {
		delete(sh.m, cl.key)
	}
	e.state = state
	w := sh.waits[e]
	delete(sh.waits, e)
	sh.mu.Unlock()
	if w != nil {
		close(w)
	}
}

// NewCore returns an empty cache core holding at most maxEntries completed
// fingerprints (0 or negative = unbounded). Long-running processes caching
// results for arbitrary client-supplied graphs — the serving tier —
// should be bounded: the cache otherwise only ever grows. Over capacity,
// arbitrary completed entries are shed (eviction costs a recomputation,
// never correctness); in-flight claims are never evicted.
func NewCore[V any](maxEntries int) *Core[V] {
	c := &Core[V]{}
	if maxEntries > 0 {
		c.perShardCap = (maxEntries + shardCount - 1) / shardCount
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cell[V])
	}
	return c
}

// trimShardLocked sheds completed entries until the shard has room for
// one more (callers insert right after). Caller holds sh.mu. Map
// iteration order is effectively random, which is exactly the cheap
// eviction policy wanted here.
func (c *Core[V]) trimShardLocked(sh *shard[V]) {
	if c.perShardCap <= 0 {
		return
	}
	for k, e := range sh.m {
		if len(sh.m) < c.perShardCap {
			return
		}
		if e.state != cellDone {
			continue // never evict an in-flight claim
		}
		delete(sh.m, k)
		c.size.Add(-1)
		c.evicted.Add(1)
	}
}

// GetOrBegin looks up a fingerprint. On a hit (or after waiting out
// another goroutine's in-flight fill of the same key) it returns the
// cached value and a nil Claim. On a miss it returns a non-nil Claim: the
// caller now owns the key and must compute and Commit (or Abandon on
// failure). A waiter whose done channel closes returns ErrCancelled
// without disturbing the in-flight fill; a nil done never cancels. A
// waiter that observes the owner abandon retries the key and may become
// the new owner.
//
// The key may point into a reusable scratch buffer: the cache copies it on
// insertion and never retains the caller's slice.
func (c *Core[V]) GetOrBegin(done <-chan struct{}, key []byte) (V, *Claim[V], error) {
	var zero V
	sh := &c.shards[shardOf(key)]
	for {
		select {
		case <-done:
			return zero, nil, ErrCancelled
		default:
		}
		sh.mu.Lock()
		e, ok := sh.m[string(key)] // no-copy map lookup
		if !ok {
			ks := string(key)
			e = &cell[V]{state: cellPending}
			c.trimShardLocked(sh)
			sh.m[ks] = e
			sh.mu.Unlock()
			cl := &Claim[V]{c: c, sh: sh, key: ks, e: e}
			if f := c.fetch; f != nil {
				if v, ok := runFetch(cl, f, key); ok {
					cl.Commit(v)
					c.remote.Add(1)
					return v, nil, nil
				}
			}
			c.misses.Add(1)
			return zero, cl, nil
		}
		if e.state == cellDone {
			sh.mu.Unlock()
			c.hits.Add(1)
			return e.val, nil, nil
		}
		// In flight on another goroutine: wait for its Commit or Abandon,
		// or for our own done channel.
		w := sh.waits[e]
		if w == nil {
			w = make(chan struct{})
			if sh.waits == nil {
				sh.waits = make(map[*cell[V]]chan struct{})
			}
			sh.waits[e] = w
		}
		sh.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-w:
		case <-done:
			return zero, nil, ErrCancelled
		}
		if e.state == cellAbandoned {
			// The owner released without a result and removed the cell;
			// retry the key — we (or another waiter) become the new owner.
			continue
		}
		return e.val, nil, nil
	}
}

// SetFetch installs a remote-fetch hook consulted on every miss, while
// the claim is already held: a hook hit is committed (and counted in
// Stats.Remote, not Misses) exactly as if the holder had computed it, so
// concurrent requesters coalesce onto one fetch and the hook's result is
// shared with every waiter. A hook miss falls through to the normal
// claim — the caller computes locally. A hook belongs only where a fetch
// is cheaper than the computation it replaces: the cluster node hooks the
// block cache (a fetch saves a DP search) and leaves the measurement
// cache without one (a peer round trip costs more than a simulator run).
// The hook takes no context: its result belongs to every coalesced
// waiter, so it must not die with the first requester; the installer
// bounds it (the cluster node uses its lifetime context plus a
// per-attempt timeout). The hook is responsible for validating what it
// returns (peers return wire entries whose Decode runs the same
// validation as Load) and must not call back into the cache for the same
// key.
//
// SetFetch must be called before the cache is shared between goroutines
// (it is a plain field write, wired once at cluster-node construction).
func (c *Core[V]) SetFetch(f func(key []byte) (V, bool)) { c.fetch = f }

// runFetch runs the fetch hook with the claim held, abandoning the claim
// if the hook panics so the fingerprint is not wedged for every future
// requester while the panic propagates.
func runFetch[V any](cl *Claim[V], f func([]byte) (V, bool), key []byte) (v V, ok bool) {
	returned := false
	defer func() {
		if !returned {
			cl.Abandon()
		}
	}()
	v, ok = f(key)
	returned = true
	return v, ok
}

// Lookup returns the value for a completed fingerprint without claiming or
// waiting; it reports false for absent and in-flight keys. Counters are
// untouched. Intended for peer export, tests and tooling.
func (c *Core[V]) Lookup(key []byte) (V, bool) {
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	e, ok := sh.m[string(key)]
	ok = ok && e.state == cellDone
	sh.mu.Unlock()
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// insert adds a completed entry if the key is absent (used by Merge; an
// existing cell — completed or in flight — wins, since by construction
// both sides hold the result of the same deterministic computation).
// Reports whether it inserted.
func (c *Core[V]) insert(key string, v V) bool {
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[key]; ok {
		return false
	}
	c.trimShardLocked(sh)
	sh.m[key] = &cell[V]{state: cellDone, val: v, seq: c.seq.Add(1)}
	c.size.Add(1)
	return true
}

// Len returns the number of completed entries (O(1): a counter, not a
// shard scan — Stats is polled per /stats request on hot caches).
func (c *Core[V]) Len() int { return int(c.size.Load()) }

// Stats is a snapshot of a cache's traffic counters. All counters are
// cumulative since the cache was created.
type Stats struct {
	// Size is the number of resident completed entries.
	Size int `json:"size"`
	// Hits served a completed value without computing.
	Hits int64 `json:"hits"`
	// Misses claimed a fingerprint and ran the computation (a simulator
	// run for the measurement cache, a block DP search for the block
	// cache).
	Misses int64 `json:"misses"`
	// Coalesced requests arrived while the same fingerprint was being
	// computed and waited for that in-flight run instead of starting
	// their own — the singleflight dedup count.
	Coalesced int64 `json:"coalesced"`
	// Loaded counts entries inserted from a persisted cache file or a
	// peer's push.
	Loaded int64 `json:"loaded"`
	// Evicted counts completed entries shed over capacity (0 for
	// unbounded caches).
	Evicted int64 `json:"evicted"`
	// Remote counts misses satisfied by the fetch hook (SetFetch) —
	// entries pulled from a peer instead of computed locally. A remote
	// hit is neither a Hit (it was not resident) nor a Miss (nothing was
	// computed).
	Remote int64 `json:"remote"`
}

// Saved returns the number of computations the cache avoided: every hit,
// every coalesced wait, and every remote fetch would have been one.
func (s Stats) Saved() int64 { return s.Hits + s.Coalesced + s.Remote }

// Stats returns a snapshot of the traffic counters.
func (c *Core[V]) Stats() Stats {
	return Stats{
		Size:      c.Len(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Loaded:    c.loaded.Load(),
		Evicted:   c.evicted.Load(),
		Remote:    c.remote.Load(),
	}
}

// shardOf hashes a key to its shard, folding eight key bytes per step
// (every lookup pays this: a measurement's id key is ~20 bytes and a hit
// on it must cost less than the simulator run it saves; a block key runs
// to kilobytes). Each step multiplies — which carries every input bit
// upward — and then folds the high half back down, so keys that share a
// prefix and differ in a byte or two (one kernel id, one trailing float
// payload) still spread; the shard index is the top bits of a final
// multiply. Deterministic and unseeded. This is not the lookup hash (Go's
// map provides that) and shard choice is never persisted.
func shardOf[K string | []byte](key K) int {
	const m = 0x9E3779B97F4A7C15
	h := uint64(len(key))
	i := 0
	for ; i+8 <= len(key); i += 8 {
		w := uint64(key[i]) | uint64(key[i+1])<<8 | uint64(key[i+2])<<16 | uint64(key[i+3])<<24 |
			uint64(key[i+4])<<32 | uint64(key[i+5])<<40 | uint64(key[i+6])<<48 | uint64(key[i+7])<<56
		h = (h ^ w) * m
		h ^= h >> 32
	}
	for ; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * m
		h ^= h >> 32
	}
	return int(h * m >> (64 - shardBits))
}
