// Package serve is the schedule-serving layer: it wraps the IOS optimizer
// (internal/core) behind a concurrent, deduplicating schedule cache and an
// HTTP JSON API, turning the one-shot "optimize a graph" library into a
// long-running service. The paper's workload shape motivates both pieces:
// a schedule is found once per (model, batch size, device) and then reused
// across millions of inferences, so a serving tier needs one optimization
// run per distinct configuration no matter how many requests race for it,
// and a bounded store of finished answers after that, on the singleflight
// core (internal/sfcache) of the block and measurement caches beneath it.
// An answer (Entry) keeps the bytes it is served as and the numbers it
// reports, not the graph and schedule it was rendered from, so what a
// store holds grows with its answers, not with the graphs submitted.
// A search runs under the context of the request that started it (plus an
// optional server-side deadline); when that request goes away its search
// stops, and a request still waiting on the key searches in its place from
// the block cache. What a search may cost is the operator's choice: every
// search runs under Config.Options, and a request names only its target
// and device.
package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"ios/internal/core"
	"ios/internal/schedule"
	"ios/internal/sfcache"
)

// Key identifies one cached schedule: the paper's specialization axes
// (model identity, batch size, device) plus the search configuration.
type Key struct {
	// Model is the zoo model name, or "graph:<fingerprint>" for custom
	// graphs submitted by value.
	Model string
	// Batch is the input batch size.
	Batch int
	// Device is the canonical device name (gpusim.Spec.Name).
	Device string
	// Opts is the canonical options fingerprint (core.Options.Fingerprint).
	Opts string
}

// String renders the key for logs and stats. It is not injective (a "/"
// in one field can pass for a separator); the cache keys on appendKey.
func (k Key) String() string {
	return fmt.Sprintf("%s/b%d/%s/%s", k.Model, k.Batch, k.Device, k.Opts)
}

// appendKey appends the cache's encoding of k to b: Model, Device and Opts
// each prefixed with its length, then Batch — injective, unlike String. A
// submitted graph's key ("graph:" and a 64-digit fingerprint, a device,
// options) fits the 128-byte stack buffer callers pass, so no lookup
// allocates.
func appendKey(b []byte, k Key) []byte {
	for _, s := range [...]string{k.Model, k.Device, k.Opts} {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return binary.AppendVarint(b, int64(k.Batch))
}

// Entry is one finished /optimize answer, the one kind the schedule cache
// and each plan's answers hold: the numbers it reports, its body rendered
// once from the schedule it answers with, and the figures /measure quotes.
// It keeps neither that schedule nor its graph. newEntry builds it; an
// Entry made any other way has no body to serve.
type Entry struct {
	// Key the entry was computed under.
	Key Key
	// Stats is the search cost of producing it (zero for a plan's answer,
	// which no search produced).
	Stats core.Stats
	// Latency is the schedule's simulated end-to-end latency (seconds).
	Latency float64
	// SequentialLatency is the sequential baseline's latency (seconds),
	// kept so responses can quote the speedup without re-measuring.
	SequentialLatency float64

	body    []byte           // the /optimize 200 body, "cached":true
	summary schedule.Summary // the schedule's, which /measure's ios answer quotes
	route   *PlanRoute       // a plan's answer's routing; nil for a searched one
	// The baselines' /measure figures: sequential set by newEntry, greedy
	// measured on first use (handleMeasure).
	sequential, greedy atomic.Pointer[measured]
}

// CacheStats counts schedule-cache traffic: the counters every sfcache
// core keeps, as /stats reports for the block and measurement caches.
type CacheStats = sfcache.Stats

// ScheduleCache is the store of finished answers, one Entry per Key, with
// request coalescing: any number of goroutines may ask for the same Key
// concurrently and one of them runs the optimizer while the rest wait for
// its result. It holds completed entries only, up to its capacity counted
// over the whole cache; see sfcache.Core for the eviction rule. The zero
// value is not usable; call NewScheduleCache.
type ScheduleCache struct{ core *sfcache.Core[*Entry] }

// NewScheduleCache returns a cache holding up to capacity completed
// entries (capacity <= 0 means unbounded). A full cache sheds arbitrary
// entries past its capacity: an evicted key costs one search over a warm
// block cache.
func NewScheduleCache(capacity int) *ScheduleCache {
	return &ScheduleCache{sfcache.NewCore[*Entry](capacity)}
}

// GetOrCompute returns the entry for key, running compute once per key no
// matter how many goroutines call concurrently: the first caller computes,
// every concurrent caller for the same key waits for that run, and later
// callers hit the stored entry. cached reports whether this caller
// avoided running compute itself.
//
// compute runs inline under the caller's own ctx. When it fails — an
// error, a cancellation, a panic (returned as an error) — nothing is
// cached: the caller gets the error, and a caller waiting on the key
// retries it, running compute itself. So a requester that goes away stops
// its own search, and one still waiting takes it over. A waiter whose ctx
// ends unblocks at once with ctx.Err().
func (c *ScheduleCache) GetOrCompute(ctx context.Context, key Key, compute func(ctx context.Context) (*Entry, error)) (*Entry, bool, error) {
	var buf [128]byte
	return getOrCompute(ctx, c.core, appendKey(buf[:0], key), func(ctx context.Context) (*Entry, error) {
		e, err := compute(ctx)
		if err == nil {
			e.Key = key // a nil entry panics: abandoned as any panic is
		}
		return e, err
	})
}

// getOrCompute is the one claim path of the server's bounded tables — the
// schedule cache, the submission table and each plan's answers: the value
// core holds for key, or else the value compute returns, run once per key
// however many goroutines ask at once. cached reports whether this caller
// avoided running compute itself. A failed compute — an error, a
// cancellation, a panic (returned as an error) — stores nothing, and a
// caller waiting on the key retries it. A waiter whose ctx ends unblocks at
// once with ctx.Err().
func getOrCompute[V any](ctx context.Context, core *sfcache.Core[V], key []byte, compute func(ctx context.Context) (V, error)) (v V, cached bool, err error) {
	// A hit first: ctx.Done() makes a cancellable context's channel on its
	// first call, which a hit does not need.
	if v, ok := core.Get(key); ok {
		return v, true, nil
	}
	v, claim, err := core.GetOrBegin(ctx.Done(), key)
	if err != nil {
		return v, false, ctx.Err() // sfcache.ErrCancelled: ctx is done
	}
	if claim == nil {
		return v, true, nil
	}
	var zero V
	defer func() {
		if r := recover(); r != nil {
			claim.Abandon()
			v, err = zero, fmt.Errorf("serve: computation panicked: %v", r)
		}
	}()
	if v, err = compute(ctx); err != nil {
		claim.Abandon()
		return zero, false, err
	}
	claim.Commit(v)
	return v, false, nil
}

// Lookup returns the completed entry for key without computing, waiting or
// counting. It reports false for absent and still-in-flight keys.
func (c *ScheduleCache) Lookup(key Key) (*Entry, bool) {
	var buf [128]byte
	return c.core.Lookup(appendKey(buf[:0], key))
}

// Len returns the number of completed entries.
func (c *ScheduleCache) Len() int { return c.core.Len() }

// Keys returns the keys of the completed entries.
func (c *ScheduleCache) Keys() []Key {
	rows, _ := c.core.Cut(0)
	keys := make([]Key, len(rows))
	for i, r := range rows {
		keys[i] = r.Val.Key
	}
	return keys
}

// Stats returns a snapshot of the traffic counters.
func (c *ScheduleCache) Stats() CacheStats { return c.core.Stats() }
