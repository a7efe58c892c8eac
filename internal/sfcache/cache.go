//ioslint:deterministic

// Package sfcache is the one singleflight cache core behind the stage
// measurement cache (internal/measure) and the whole-block schedule cache
// (internal/blockcache): a concurrent, sharded, capacity-bounded map from
// canonical fingerprint to an immutable, always-recomputable value, with
// claim/Commit/Abandon deduplication (Core), and one persistence and
// peer-exchange path (persist.go: the cache-file frames, and Cache, a Core
// whose keys are their own wire form). blockcache instantiates Cache with its value type and a Codec
// for its wire entry; measure, whose in-memory keys are ids into a
// dictionary it owns, composes Core and the frame functions itself.
// Everything with a shard mutex in it lives here.
//
// A shard keeps its completed entries in a flat table — entries in chunks
// that are never copied, the key inline or in a byte arena, and an
// open-addressing index of 32-bit words naming them — so a completed
// float64 entry is bytes the collector never traces, and a hit probes the
// table without taking a lock. Only claims in flight live in a map. A
// bounded core evicts by tombstoning an index word; the space comes back
// when the shard's table is next rebuilt.
package sfcache

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// shardCount spreads the cache over independently locked shards so the DP
// engine's worker pool, parallel block searches and concurrent serving
// requests rarely contend on one mutex. Power of two; the key hash below
// takes its top shardBits bits.
const (
	shardBits  = 5
	shardCount = 1 << shardBits
)

// The geometry of a shard's table.
const (
	// keyField is the bytes of key an entry holds: a key of up to
	// inlineMax bytes inline, its length in the last byte; a longer key's
	// arena block, offset and length, and longKey in the last byte. The
	// measurement cache's id keys are ~19 bytes (85 % fit inline, none
	// passes 47); a block key runs to kilobytes.
	keyField  = 24
	inlineMax = keyField - 1
	longKey   = 0xFF

	// Chunks hold minChunk entries, doubling to chunkCap, so a shard of a
	// few entries stays small; a full one is 10 KB of float64 entries.
	minChunkBits = 2
	minChunk     = 1 << minChunkBits
	chunkBits    = 8
	chunkCap     = 1 << chunkBits

	// Arena blocks double from minArena to maxArena bytes. A key longer
	// than bigKey (a block key) is a block of its own: the bytes of the
	// string it arrived in — the claim's copy, or a loaded row's — which
	// are immutable, so it is stored without a second copy.
	minArena = 256
	maxArena = 16 << 10
	bigKey   = 128

	// An index word is an 8-bit tag of the key's hash above a 24-bit ref:
	// 0 is a free slot, tombstone an evicted entry, and anything else names
	// the entry at chunk (ref-1)>>chunkBits, slot (ref-1)&(chunkCap-1).
	refBits   = 24
	refMask   = 1<<refBits - 1
	tombstone = refMask

	// minIndex is a table's smallest index. An index is rebuilt when its
	// words in use (entries and tombstones) would pass three quarters of
	// it, to hold the live entries at most three eighths full.
	minIndex = 16

	// maxShardEntries caps a shard's completed entries even in an
	// unbounded core (134 M entries over the core): it keeps a table's
	// index within 2^24 words, whose three quarters fit in the chunks a
	// 24-bit ref can name.
	maxShardEntries = 1 << 22
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
// invalidate: the cache only grows, up to its capacity. A hit on a
// completed key takes no lock and allocates nothing. Safe for use from
// any number of goroutines.
//
// The zero value is not usable; call NewCore.
type Core[V any] struct {
	shards [shardCount]shard[V]
	// perShardCap bounds each shard's completed entries (maxShardEntries
	// when the core is unbounded): values are always recomputable, so a
	// full shard sheds an arbitrary completed entry rather than keeping
	// LRU bookkeeping on the lookup hot path. In-flight claims are never
	// evicted.
	perShardCap int

	// seq is the publication counter behind Snapshot's incremental
	// export: every completed entry is stamped with seq+1 when it is
	// added, always under its shard mutex, so a Cut holding every shard
	// mutex observes exactly the entries stamped ≤ its counter read.
	seq atomic.Uint64
}

// fromPeer is set in the stamp of an entry merged from a peer (Merge,
// MergeFrames), which Own skips: a cluster node pushes what it searched
// or loaded from a file, never what a peer already sent it.
const fromPeer = 1 << 63

// shard is one independently locked part of a Core: the published table
// of its completed entries, the claims in flight, and its own traffic
// counters (every lookup writes one, so they sit with the shard, not on
// one line all shards share). Padded to two cache lines so neighbouring
// shards' mutexes and counters do not share one.
type shard[V any] struct {
	// tab is the current view of the completed entries; nil until the
	// first one. Readers load it and probe without the mutex; every write
	// happens under mu (see table).
	tab atomic.Pointer[table[V]]

	mu sync.Mutex
	// claims holds the claims in flight, allocated at the first one.
	claims map[string]*Claim[V] // guarded by mu
	// The writer's position in tab: index words in use (entries and
	// tombstones); chunks in use and entries in the last; arena blocks in
	// use and bytes used of the last; the index slot eviction looks at
	// next.
	used      int // guarded by mu
	chunk     int // guarded by mu
	fill      int // guarded by mu
	blocks    int // guarded by mu
	arenaFill int // guarded by mu
	sweep     int // guarded by mu

	// size counts completed entries so Len/Stats never scan the tables —
	// /stats polls them on a hot cache. Written under mu, read by Len.
	size      atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	loaded    atomic.Int64
	evicted   atomic.Int64
	_         [8]byte
} // 128 bytes (TestAllocationShape)

// entry is one completed fingerprint: its value, publication stamp (with
// fromPeer) and key (see keyField). It is written once, before the index word naming it
// is stored, and never again — eviction tombstones the word and a rebuild
// copies live entries into fresh storage — so a reader that found the word
// reads it without a lock. For V = float64 it holds no pointer.
type entry[V any] struct {
	val V
	seq uint64
	key [keyField]byte
}

// table is one view of a shard's completed entries. Lookups load the
// shard's current view and probe it without a lock; what they cannot
// settle there falls through to the locked path, which re-probes the
// current view. The writer, under the shard mutex, follows the DP stage
// memo's discipline (internal/core's stageTable): index words are
// accessed only atomically; an entry, and the chunk and arena block
// holding it — stored into the next empty element of their lists — are
// written before the word that names it is stored; a word goes from free
// to an entry and from an entry to a tombstone, never back. The lists
// have fixed lengths: chunks is sized at a rebuild for every entry the
// index can take, and a full arena list is replaced by a copy twice as
// long in a new view sharing the index — so a reader holding the older
// view may find a word naming a block its list lacks, which it cannot
// settle, like a free slot (the key may be in a later generation). A
// rebuild publishes a new generation: a larger index over the same
// storage, or, once entries have been evicted, the live entries copied
// into fresh storage, which is how eviction's space comes back.
type table[V any] struct {
	index  []atomic.Uint32
	shift  uint8 // 64 - log2(len(index))
	chunks [][]entry[V]
	arena  [][]byte
}

// hashKey hashes a key, folding eight key bytes per step (every lookup
// pays this: a measurement's id key is ~20 bytes and a hit on it must cost
// less than the simulator run it saves; a block key runs to kilobytes).
// Each step multiplies — which carries every input bit upward — and then
// folds the high half back down, so keys that share a prefix and differ in
// a byte or two (one kernel id, one trailing float payload) still spread;
// a final multiply mixes the result. Its top shardBits bits pick the
// shard, the next ones the index slot, and bits 24–31 the index word's
// tag. Deterministic and unseeded; never persisted.
func hashKey[K string | []byte](key K) uint64 {
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
	return h * m
}

// tagged is the index word naming ref under hash h.
func tagged(h uint64, ref uint32) uint32 { return uint32(h>>24)<<refBits | ref }

// keyString views immutable table bytes as a string without copying. An
// entry's key bytes are written once, before the entry is published, and
// never again, so the string stays valid — and keeps the storage it points
// into alive — for as long as it is held.
func keyString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// chunkLen is the entry count of a table's chunk c.
func chunkLen(c int) int {
	if c < chunkBits-minChunkBits {
		return minChunk << c
	}
	return chunkCap
}

// chunksFor is how many chunks hold n entries.
func chunksFor(n int) int {
	c := 0
	for held := 0; held < n; c++ {
		held += chunkLen(c)
	}
	return c
}

// entry returns the entry an index word names and its key, or false when
// the key is in an arena block this view's list predates.
func (t *table[V]) entry(w uint32) (*entry[V], []byte, bool) {
	r := w&refMask - 1
	e := &t.chunks[r>>chunkBits][r&(chunkCap-1)]
	if n := e.key[inlineMax]; n != longKey {
		return e, e.key[:n], true
	}
	b, off, n := binary.LittleEndian.Uint32(e.key[0:]), binary.LittleEndian.Uint32(e.key[4:]), binary.LittleEndian.Uint32(e.key[8:])
	if int(b) >= len(t.arena) {
		return nil, nil, false
	}
	return e, t.arena[b][off : off+n], true
}

// get probes the view for a completed key; false when the view does not
// settle it (see table). h is hashKey(key). Takes no lock.
func get[V any, K string | []byte](t *table[V], key K, h uint64) (V, bool) {
	mask := uint64(len(t.index) - 1)
	tag := uint32(h >> 24 & 0xFF)
	for i := h << shardBits >> t.shift; ; i = (i + 1) & mask {
		w := t.index[i].Load()
		if w == 0 {
			break
		}
		if w>>refBits != tag || w&refMask == tombstone {
			continue
		}
		e, k, ok := t.entry(w)
		if !ok {
			break
		}
		if string(k) == string(key) {
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// place stores word w for hash h in the first free slot of its probe
// sequence; the caller holds the shard mutex and knows the key is absent.
func (t *table[V]) place(h uint64, w uint32) {
	mask := uint64(len(t.index) - 1)
	i := h << shardBits >> t.shift
	for t.index[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t.index[i].Store(w)
}

// at returns index slot i's word and the completed entry it names; false
// for a free slot or a tombstone. The caller holds the shard mutex, so the
// view is current and settles every word.
func (t *table[V]) at(i int) (uint32, *entry[V], []byte, bool) {
	w := t.index[i].Load()
	if w == 0 || w&refMask == tombstone {
		return 0, nil, nil, false
	}
	e, k, _ := t.entry(w)
	return w, e, k, true
}

// shardFor is the shard of a key whose hash is h.
func (c *Core[V]) shardFor(h uint64) *shard[V] { return &c.shards[h>>(64-shardBits)] }

// find is a shard's lookup of a completed key. Without the mutex a false
// may be stale; under it, it is authoritative.
func find[V any, K string | []byte](sh *shard[V], key K, h uint64) (V, bool) {
	if t := sh.tab.Load(); t != nil {
		return get(t, key, h)
	}
	var zero V
	return zero, false
}

// addLocked adds a completed entry for a key the shard holds neither
// completed nor in flight, shedding one first when the shard is full;
// origin is 0 or fromPeer. Caller holds sh.mu.
func (c *Core[V]) addLocked(sh *shard[V], key string, h uint64, v V, origin uint64) {
	if sh.size.Load() >= int64(c.perShardCap) {
		sh.evictLocked()
	}
	t := sh.tab.Load()
	fresh := false // t is unpublished, so its slices may grow in place
	if t == nil || 4*(sh.used+1) > 3*len(t.index) {
		t, fresh = sh.rebuildLocked(t), true
	} else if sh.arenaFullLocked(t, len(key)) {
		cp := *t
		t, fresh = &cp, true
	}
	ref := sh.storeLocked(t, key, v, c.seq.Add(1)|origin)
	if fresh {
		sh.tab.Store(t)
	}
	t.place(h, tagged(h, ref))
	sh.used++
	sh.size.Add(1)
}

// arenaFullLocked reports whether storing a key of n bytes in t needs an
// arena block t's list has no room for. Caller holds sh.mu.
func (sh *shard[V]) arenaFullLocked(t *table[V], n int) bool {
	return n > inlineMax && sh.blocks == len(t.arena) &&
		(n > bigKey || sh.blocks == 0 || sh.arenaFill+n > len(t.arena[sh.blocks-1]))
}

// addBlockLocked stores an arena block in the next element of t's list,
// replacing a full list by a longer copy — which addLocked makes sure
// happens only to an unpublished view. Caller holds sh.mu.
func (sh *shard[V]) addBlockLocked(t *table[V], b []byte) {
	if sh.blocks == len(t.arena) {
		grown := make([][]byte, max(4, 2*len(t.arena)))
		copy(grown, t.arena)
		t.arena = grown
	}
	t.arena[sh.blocks] = b
	sh.blocks++
}

// storeLocked writes an entry into t's storage and returns its ref.
// Caller holds sh.mu.
func (sh *shard[V]) storeLocked(t *table[V], key string, v V, seq uint64) uint32 {
	if sh.chunk == 0 || sh.fill == len(t.chunks[sh.chunk-1]) {
		t.chunks[sh.chunk] = make([]entry[V], chunkLen(sh.chunk))
		sh.chunk++
		sh.fill = 0
	}
	c := sh.chunk - 1
	e := &t.chunks[c][sh.fill]
	e.val, e.seq = v, seq
	if len(key) <= inlineMax {
		copy(e.key[:], key)
		e.key[inlineMax] = byte(len(key))
	} else {
		off := sh.arenaFill
		switch {
		case len(key) > bigKey: // a block of its own, full, so never written
			sh.addBlockLocked(t, unsafe.Slice(unsafe.StringData(key), len(key)))
			off = 0
		case sh.blocks == 0 || off+len(key) > len(t.arena[sh.blocks-1]):
			n := minArena
			if sh.blocks > 0 {
				n = min(2*len(t.arena[sh.blocks-1]), maxArena)
			}
			sh.addBlockLocked(t, make([]byte, n))
			off = 0
			fallthrough
		default:
			copy(t.arena[sh.blocks-1][off:], key)
		}
		binary.LittleEndian.PutUint32(e.key[0:], uint32(sh.blocks-1))
		binary.LittleEndian.PutUint32(e.key[4:], uint32(off))
		binary.LittleEndian.PutUint32(e.key[8:], uint32(len(key)))
		e.key[inlineMax] = longKey
		sh.arenaFill = off + len(key)
	}
	ref := uint32(c<<chunkBits|sh.fill) + 1
	sh.fill++
	return ref
}

// rebuildLocked returns the shard's next generation, unpublished: an index
// sized for the live entries. With nothing evicted the storage is shared
// and only re-indexed; otherwise the live entries are copied into fresh
// storage, which drops the evicted ones. Caller holds sh.mu.
func (sh *shard[V]) rebuildLocked(old *table[V]) *table[V] {
	live := int(sh.size.Load())
	slots := minIndex
	for 8*live > 3*slots {
		slots *= 2
	}
	t := &table[V]{
		index:  make([]atomic.Uint32, slots),
		shift:  uint8(64 - bits.TrailingZeros(uint(slots))),
		chunks: make([][]entry[V], chunksFor(3*slots/4)),
	}
	shared := sh.used == live
	sh.used, sh.sweep = 0, 0
	if old == nil {
		return t
	}
	if shared {
		copy(t.chunks, old.chunks[:sh.chunk])
		t.arena = old.arena
	} else {
		sh.chunk, sh.fill, sh.blocks, sh.arenaFill = 0, 0, 0, 0
	}
	for i := range old.index {
		w, e, k, ok := old.at(i)
		if !ok {
			continue
		}
		h := hashKey(k)
		if !shared {
			w = tagged(h, sh.storeLocked(t, keyString(k), e.val, e.seq))
		}
		t.place(h, w)
		sh.used++
	}
	return t
}

// evictLocked sheds one completed entry — the next live one in index
// order from where the last eviction stopped, an arbitrary choice — by
// tombstoning its index word. Caller holds sh.mu; the shard holds at
// least one completed entry.
func (sh *shard[V]) evictLocked() {
	t := sh.tab.Load()
	for i := sh.sweep; ; i = (i + 1) & (len(t.index) - 1) {
		if w := t.index[i].Load(); w != 0 && w&refMask != tombstone {
			t.index[i].Store(tombstone)
			sh.sweep = i
			break
		}
	}
	sh.size.Add(-1)
	sh.evicted.Add(1)
}

// Claim states: in flight (the zero value), then committed or abandoned.
const (
	claimDone uint8 = iota + 1
	claimAbandoned
)

// Claim is an exclusive lease on one missing fingerprint, returned by
// GetOrBegin: the holder must compute the value and call Commit — or, if
// the computation fails for any reason, Abandon — exactly once (every
// other goroutine asking for the same key waits on it until then).
//
// While in flight a claim sits in its shard's claims map. state, val and
// wake are written under the shard mutex; wake is made by the first
// requester that has to wait (an uncontended fill never allocates a
// channel) and closed when the claim finishes, so a waiter woken by it
// reads state and val without the mutex.
type Claim[V any] struct {
	c     *Core[V]
	key   string
	val   V
	wake  chan struct{}
	state uint8
}

// Commit publishes the completed value and releases the claim. The value
// is shared with every current and future reader and must not be mutated
// afterwards.
func (cl *Claim[V]) Commit(v V) { cl.finish(claimDone, v) }

// Abandon releases the claim without publishing a result: the claim is
// removed from the cache (so the fingerprint stays computable) and blocked
// waiters retry the key instead of reading a missing value. Call it when
// the computation cannot complete — a cancelled context, an error, a
// panicking backend — or the fingerprint would stay wedged forever for
// every future requester of a shared cache.
func (cl *Claim[V]) Abandon() {
	var zero V
	cl.finish(claimAbandoned, zero)
}

// finish moves the claim to its final state — a commit adds the entry to
// the table, stamped, under the same lock — and wakes the waiters, if any
// ever arrived. Nothing blocks while holding a shard mutex, so the brief
// lock cannot deadlock.
func (cl *Claim[V]) finish(state uint8, v V) {
	h := hashKey(cl.key)
	sh := cl.c.shardFor(h)
	sh.mu.Lock()
	if sh.claims[cl.key] == cl {
		delete(sh.claims, cl.key)
		if state == claimDone {
			cl.c.addLocked(sh, cl.key, h, v, 0)
		}
	}
	cl.state, cl.val = state, v
	w := cl.wake
	sh.mu.Unlock()
	if w != nil {
		close(w)
	}
}

// NewCore returns an empty cache core holding at most maxEntries completed
// fingerprints (0 or negative = unbounded, up to maxShardEntries a shard).
// Long-running processes caching results for arbitrary client-supplied
// graphs — the serving tier — should be bounded: the cache otherwise only
// ever grows. Over capacity, arbitrary completed entries are shed
// (eviction costs a recomputation, never correctness); in-flight claims
// are never evicted. A shard's table is allocated at its first entry, so
// an empty core is one object.
func NewCore[V any](maxEntries int) *Core[V] {
	c := &Core[V]{perShardCap: maxShardEntries}
	if maxEntries > 0 {
		c.perShardCap = min((maxEntries+shardCount-1)/shardCount, maxShardEntries)
	}
	return c
}

// GetOrBegin looks up a fingerprint. On a hit (or after waiting out
// another goroutine's in-flight fill of the same key) it returns the
// cached value and a nil Claim. On a miss it returns a non-nil Claim: the
// caller now owns the key and must compute and Commit (or Abandon on
// failure). A waiter whose done channel closes returns ErrCancelled
// without disturbing the in-flight fill; a nil done never cancels. A
// waiter that observes the owner abandon retries the key and may become
// the new owner. A hit on a completed key takes no lock.
//
// The key may point into a reusable scratch buffer: the cache copies it on
// insertion and never retains the caller's slice.
func (c *Core[V]) GetOrBegin(done <-chan struct{}, key []byte) (V, *Claim[V], error) {
	var zero V
	h := hashKey(key)
	sh := c.shardFor(h)
	for {
		if done != nil {
			select {
			case <-done:
				return zero, nil, ErrCancelled
			default:
			}
		}
		if v, ok := find(sh, key, h); ok {
			sh.hits.Add(1)
			return v, nil, nil
		}
		sh.mu.Lock()
		if v, ok := find(sh, key, h); ok {
			sh.mu.Unlock()
			sh.hits.Add(1)
			return v, nil, nil
		}
		cl := sh.claims[string(key)] // no-copy map lookup
		if cl == nil {
			cl = &Claim[V]{c: c, key: string(key)}
			if sh.claims == nil {
				sh.claims = make(map[string]*Claim[V])
			}
			sh.claims[cl.key] = cl
			sh.mu.Unlock()
			sh.misses.Add(1)
			return zero, cl, nil
		}
		// In flight on another goroutine: wait for its Commit or Abandon,
		// or for our own done channel.
		if cl.wake == nil {
			cl.wake = make(chan struct{})
		}
		w := cl.wake
		sh.mu.Unlock()
		sh.coalesced.Add(1)
		select {
		case <-w:
		case <-done:
			return zero, nil, ErrCancelled
		}
		if cl.state == claimAbandoned {
			// The owner released without a result and removed the claim;
			// retry the key — we (or another waiter) become the new owner.
			continue
		}
		return cl.val, nil, nil
	}
}

// Lookup returns the value for a completed fingerprint without claiming or
// waiting; it reports false for absent and in-flight keys. Counters are
// untouched. A completed key is found without a lock; anything else is
// re-probed under the shard mutex. Intended for tests and tooling.
func (c *Core[V]) Lookup(key []byte) (V, bool) {
	h := hashKey(key)
	sh := c.shardFor(h)
	if v, ok := find(sh, key, h); ok {
		return v, true
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return find(sh, key, h)
}

// Len returns the number of completed entries (a sum of per-shard
// counters, not a table scan — Stats is polled per /stats request on hot
// caches).
func (c *Core[V]) Len() int {
	n := int64(0)
	for i := range c.shards {
		n += c.shards[i].size.Load()
	}
	return int(n)
}

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
	// Remote is always 0: no fetch fills a miss since blocks replicate
	// whole. Kept only because the benchmark reads it; it goes when
	// bench/ is re-opened.
	Remote int64 `json:"remote"`
}

// Saved returns the number of computations the cache avoided: every hit
// and every coalesced wait would have been one.
func (s Stats) Saved() int64 { return s.Hits + s.Coalesced }

// Stats returns a snapshot of the traffic counters, summed over the shards.
func (c *Core[V]) Stats() Stats {
	var s Stats
	for i := range c.shards {
		sh := &c.shards[i]
		s.Size += int(sh.size.Load())
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Coalesced += sh.coalesced.Load()
		s.Loaded += sh.loaded.Load()
		s.Evicted += sh.evicted.Load()
	}
	return s
}
