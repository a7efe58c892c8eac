// Package serve is the schedule-serving layer: it wraps the IOS optimizer
// (internal/core) behind a concurrent, deduplicating schedule cache and an
// HTTP JSON API, turning the one-shot "optimize a graph" library into a
// long-running service. The paper's workload shape motivates both pieces:
// a schedule is found once per (model, batch size, device) and then reused
// across millions of inferences, so a serving tier needs exactly one
// optimization run per distinct configuration no matter how many requests
// race for it, and a bounded memory of recipes after that. The layer is
// context-aware end to end: requests carry their HTTP context (plus an
// optional server-side deadline), and an in-flight optimization is
// cancelled once every request coalesced onto it has gone away. What a
// search may cost is the operator's choice: every search runs under
// Config.Options, and a request names only its target and device.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ios/internal/core"
	"ios/internal/graph"
	"ios/internal/schedule"
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

// String renders the key for logs and stats.
func (k Key) String() string {
	return fmt.Sprintf("%s/b%d/%s/%s", k.Model, k.Batch, k.Device, k.Opts)
}

// Entry is one cached optimization result: the schedule recipe together
// with the measurements a serving response reports.
type Entry struct {
	// Key the entry was computed under.
	Key Key
	// Graph is the computation graph the schedule targets.
	Graph *graph.Graph
	// Schedule is the IOS-optimized execution plan.
	Schedule *schedule.Schedule
	// Stats is the search cost of producing it.
	Stats core.Stats
	// Latency is the schedule's simulated end-to-end latency (seconds).
	Latency float64
	// SequentialLatency is the sequential baseline's latency (seconds),
	// kept so responses can quote the speedup without re-measuring.
	SequentialLatency float64
	// ComputedAt stamps when the optimization ran.
	ComputedAt time.Time
	// answer is what every hit is answered from, serialized once (at
	// compute time by a Server, on first use otherwise); see rendered.
	answer atomic.Pointer[optimizeAnswer]
	// The baselines' /measure figures, measured on first use (handleMeasure).
	sequential, greedy atomic.Pointer[measured]
}

// CacheStats counts cache traffic. All counters are cumulative since the
// cache was created.
type CacheStats struct {
	// Size and Capacity describe the resident set (Capacity 0 =
	// unbounded).
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Hits served a completed entry without waiting.
	Hits int64 `json:"hits"`
	// Misses ran the optimizer.
	Misses int64 `json:"misses"`
	// Coalesced requests arrived while the same key was being computed
	// and waited for that in-flight run instead of starting their own —
	// the singleflight dedup count.
	Coalesced int64 `json:"coalesced"`
	// Evictions removed least-recently-used entries over capacity.
	Evictions int64 `json:"evictions"`
	// Errors counts failed computations (failures are not cached).
	Errors int64 `json:"errors"`
	// Cancelled counts computations aborted by context cancellation or
	// deadline expiry — a run is cancelled once every requester that was
	// waiting on it has gone away. Cancelled runs are a subset of Errors.
	Cancelled int64 `json:"cancelled"`
}

// slot is one cache cell. A slot is published to the map before its
// computation runs; done is closed when entry/err are final.
type slot struct {
	done     chan struct{}
	entry    *Entry
	err      error
	lastUsed int64 // LRU clock value, guarded by the cache mutex
	// interest counts requesters (the computing owner plus coalesced
	// waiters) whose contexts are still live; guarded by the cache
	// mutex. When it reaches zero before the computation completes, the
	// run's context is cancelled — nobody is left to receive the result,
	// so burning more CPU on it only delays other requests.
	interest int
	// cancelRun cancels the in-flight computation's context.
	cancelRun context.CancelFunc
}

// ScheduleCache is a concurrent schedule cache with request coalescing:
// any number of goroutines may ask for the same Key concurrently and
// exactly one of them runs the optimizer while the rest wait for its
// result (singleflight semantics). Completed entries are retained under an
// LRU policy up to the configured capacity. The zero value is not usable;
// call NewScheduleCache.
type ScheduleCache struct {
	mu        sync.Mutex
	cap       int           // immutable after construction
	slots     map[Key]*slot // guarded by mu
	clock     int64         // guarded by mu
	hits      int64         // guarded by mu
	misses    int64         // guarded by mu
	coal      int64         // guarded by mu
	evicted   int64         // guarded by mu
	errs      int64         // guarded by mu
	cancelled int64         // guarded by mu
}

// NewScheduleCache returns a cache holding up to capacity completed
// entries (capacity <= 0 means unbounded).
func NewScheduleCache(capacity int) *ScheduleCache {
	if capacity < 0 {
		capacity = 0
	}
	return &ScheduleCache{cap: capacity, slots: make(map[Key]*slot)}
}

// GetOrCompute returns the entry for key, running compute at most once per
// key no matter how many goroutines call concurrently: the first caller
// computes, every concurrent caller for the same key blocks until that
// single run finishes, and later callers hit the stored entry. cached
// reports whether this caller avoided running compute itself. A compute
// error is returned to every waiting caller but is not cached, so the next
// request retries.
//
// Cancellation semantics: compute receives a context that stays live as
// long as ANY requester coalesced onto the run still wants the result,
// and is cancelled once every such requester's own context is done — a
// popular in-flight optimization is never killed by one impatient client,
// while a run nobody is waiting for stops burning CPU. A waiter whose
// context is cancelled unblocks immediately with its ctx.Err(); a waiter
// that observes the run die of some OTHER requester's cancellation
// retries the key (becoming the new owner) instead of failing spuriously.
// Cancelled runs are counted in Stats().Cancelled, are not cached, and
// free their slot — a retry for the same key always starts fresh.
func (c *ScheduleCache) GetOrCompute(ctx context.Context, key Key, compute func(ctx context.Context) (*Entry, error)) (e *Entry, cached bool, err error) {
	c.mu.Lock()
	for {
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, false, err
		}
		s, ok := c.slots[key]
		if !ok {
			break
		}
		select {
		case <-s.done:
			if s.err != nil {
				// A failed run raced ahead of its own cleanup;
				// drop it and compute afresh.
				delete(c.slots, key)
				continue
			}
			// Completed entry: a plain hit.
			c.hits++
			c.clock++
			s.lastUsed = c.clock
			c.mu.Unlock()
			return s.entry, true, nil
		default:
			// In flight: coalesce onto the running computation,
			// registering our interest so the run outlives any single
			// requester's disconnect but not all of them.
			c.coal++
			s.interest++
			c.mu.Unlock()
			stop := context.AfterFunc(ctx, func() { c.release(s) })
			select {
			case <-s.done:
				stop()
				if s.err != nil && isCancelErr(s.err) && ctx.Err() == nil {
					// The run died of someone else's cancellation while
					// we still want the result: retry the key.
					c.mu.Lock()
					continue
				}
				return s.entry, true, s.err
			case <-ctx.Done():
				// Our interest unit is released by the AfterFunc.
				return nil, false, ctx.Err()
			}
		}
	}
	s := &slot{done: make(chan struct{}), interest: 1}
	c.misses++
	c.clock++
	s.lastUsed = c.clock
	// The run's context is detached from the owner's (so an owner
	// disconnect does not kill a run other requesters coalesced onto)
	// and cancelled by release once the last interested requester is
	// gone.
	runCtx, cancelRun := context.WithCancel(context.WithoutCancel(ctx))
	s.cancelRun = cancelRun
	c.slots[key] = s
	c.mu.Unlock()
	stop := context.AfterFunc(ctx, func() { c.release(s) })

	// A compute panic must not leave the slot's done channel open:
	// coalesced waiters block on it forever and — since the slot would
	// stay resident — so would every future request for the key. Convert
	// the panic to an error so waiters unblock and the key stays
	// retryable.
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.entry, s.err = nil, fmt.Errorf("serve: schedule computation panicked: %v", r)
			}
			if s.entry != nil {
				s.entry.Key = key
			}
			close(s.done)
		}()
		s.entry, s.err = compute(runCtx)
	}()
	stop()
	cancelRun() // the run is over; free the context's resources

	c.mu.Lock()
	if s.err != nil {
		c.errs++
		if isCancelErr(s.err) {
			c.cancelled++
		}
		// Delete only our own slot: between close(done) and here, a new
		// caller may have observed the failure, removed this slot, and
		// installed a fresh in-flight one — which must not be torn down.
		if c.slots[key] == s {
			delete(c.slots, key) // failures are retried, not cached
		}
	} else {
		c.evictOverCapLocked()
	}
	c.mu.Unlock()
	return s.entry, false, s.err
}

// release drops one requester's interest in an in-flight slot; the last
// release cancels the run. Runs from context.AfterFunc goroutines.
func (c *ScheduleCache) release(s *slot) {
	c.mu.Lock()
	s.interest--
	if s.interest == 0 && s.cancelRun != nil {
		s.cancelRun()
	}
	c.mu.Unlock()
}

// isCancelErr reports whether an error chain ends in a context
// cancellation or deadline expiry.
func isCancelErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Peek returns the completed entry for key without computing, and without
// touching LRU order or hit/miss counters. It reports false for absent and
// still-in-flight keys.
func (c *ScheduleCache) Peek(key Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.slots[key]
	if !ok {
		return nil, false
	}
	select {
	case <-s.done:
		if s.err != nil {
			return nil, false
		}
		return s.entry, true
	default:
		return nil, false
	}
}

// Len returns the number of resident slots (completed or in flight).
func (c *ScheduleCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// Keys returns the resident keys in unspecified order.
func (c *ScheduleCache) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]Key, 0, len(c.slots))
	for k := range c.slots {
		keys = append(keys, k)
	}
	return keys
}

// Purge drops every completed entry (in-flight computations are left to
// finish and remain cached).
func (c *ScheduleCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, s := range c.slots {
		select {
		case <-s.done:
			delete(c.slots, k)
		default:
		}
	}
}

// Stats returns a snapshot of the traffic counters.
func (c *ScheduleCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:      len(c.slots),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coal,
		Evictions: c.evicted,
		Errors:    c.errs,
		Cancelled: c.cancelled,
	}
}

// evictOverCapLocked removes least-recently-used completed slots until the
// resident set fits the capacity. In-flight slots are never evicted (they
// have waiters). Caller holds c.mu.
func (c *ScheduleCache) evictOverCapLocked() {
	if c.cap <= 0 {
		return
	}
	for len(c.slots) > c.cap {
		var (
			oldestKey Key
			oldest    *slot
		)
		for k, s := range c.slots {
			select {
			case <-s.done:
			default:
				continue // in flight
			}
			if oldest == nil || s.lastUsed < oldest.lastUsed {
				oldestKey, oldest = k, s
			}
		}
		if oldest == nil {
			return // everything resident is in flight
		}
		delete(c.slots, oldestKey)
		c.evicted++
	}
}
