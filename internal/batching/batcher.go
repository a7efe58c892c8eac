package batching

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed is Submit's error once the batcher has been closed.
var ErrClosed = errors.New("batching: batcher closed")

// Exec runs one dispatched batch and returns its service latency (the
// time the batch occupies the device) plus an arbitrary payload shared
// by every request of the dispatch (e.g. the serving tier's routing
// record). Exec calls never overlap and come in decision order —
// dispatches execute serially, modeling one device lane — each on the
// goroutine that decided it (a Submit, the SLO timer or Drain) or on one
// already executing. A panicking Exec fails its dispatch's requests.
type Exec func(d Dispatch) (service time.Duration, payload any, err error)

// Result is one request's completion record.
type Result struct {
	// Err is the dispatch's execution error, if any; the timing fields
	// are meaningless when it is set.
	Err error
	// Batch is the dispatch size (total images) the request rode in;
	// Requests is how many coalesced requests shared it.
	Batch    int
	Requests int
	// Payload is the Exec payload of the request's dispatch.
	Payload any
	// QueueWait is time from arrival to the dispatch decision.
	QueueWait time.Duration
	// Service is the dispatch's measured execution latency.
	Service time.Duration
	// Total is arrival to (virtual) completion: queue wait, any device
	// backlog, and service.
	Total time.Duration
	// Violated reports Total exceeded the configured SLO.
	Violated bool
}

// Stats is a snapshot of a Batcher's counters for monitoring (/stats).
type Stats struct {
	// QueueDepth is the number of images currently queued.
	QueueDepth int `json:"queue_depth"`
	// InFlight is the number of dispatches decided but not yet executed.
	InFlight int `json:"in_flight"`
	// ArrivalRate is the observed arrival-rate estimate in images/sec.
	ArrivalRate float64 `json:"arrival_rate"`
	// Dispatches and Images count completed dispatch decisions and the
	// images they carried.
	Dispatches int64 `json:"dispatches"`
	Images     int64 `json:"images"`
	// Violations counts results whose total latency exceeded the SLO.
	Violations int64 `json:"violations"`
	// DispatchHist maps dispatch size -> count.
	DispatchHist map[int]int64 `json:"-"`
}

// Batcher is the asynchronous auto-batching front end: it wraps a Queue
// with real arrival timestamps and an SLO timer, and runs dispatches
// serially against a virtual device timeline (service latencies are the
// measured/simulated values Exec reports; a dispatch cannot start before
// its predecessor's virtual completion). It owns no goroutine: the
// goroutine that decides a dispatch executes it, unless another is
// executing already, which then runs it next. Safe for concurrent use.
type Batcher struct {
	cfg  Config
	exec Exec
	now  func() time.Time

	mu         sync.Mutex
	q          *Queue                 // guarded by mu
	waiters    map[uint64]chan Result // guarded by mu
	nextID     uint64                 // guarded by mu
	execQ      []timedDispatch        // guarded by mu
	inflight   int                    // guarded by mu
	running    bool                   // guarded by mu: a goroutine is executing execQ
	deviceFree time.Time              // guarded by mu
	violations int64                  // guarded by mu
	timer      *time.Timer            // guarded by mu
	timerAt    time.Time              // guarded by mu
	closed     bool                   // guarded by mu
	idle       []chan struct{}        // guarded by mu
}

// timedDispatch stamps a dispatch with its decision time, the moment
// the batch (virtually) reaches the device.
type timedDispatch struct {
	d  Dispatch
	at time.Time
}

// NewBatcher validates cfg and returns an idle batcher. Close drains it
// and refuses later submissions.
func NewBatcher(cfg Config, exec Exec) (*Batcher, error) {
	if exec == nil {
		return nil, fmt.Errorf("batching: nil Exec")
	}
	q, err := NewQueue(cfg)
	if err != nil {
		return nil, err
	}
	return &Batcher{
		cfg:  cfg,
		exec: exec,
		// The injected clock's default; tests substitute a fake by assigning b.now.
		now:     time.Now,
		q:       q,
		waiters: make(map[uint64]chan Result),
	}, nil
}

// Submit enqueues a request of images images and blocks until its batch
// has been dispatched and executed (or ctx is done, or the batcher is
// closed). A request whose ctx ends while still queued is retracted; a
// request already dispatched runs to completion but the abandoned
// result is discarded.
func (b *Batcher) Submit(ctx context.Context, images int) (Result, error) {
	if images < 1 {
		return Result{}, fmt.Errorf("batching: images %d < 1", images)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return Result{}, ErrClosed
	}
	b.nextID++
	id := b.nextID
	now := b.now()
	if err := b.q.Add(now, Request{ID: id, Images: images, Arrived: now}); err != nil {
		b.mu.Unlock()
		return Result{}, err
	}
	ch := make(chan Result, 1) // buffered: delivery never blocks on an abandoned waiter
	b.waiters[id] = ch
	b.decideLocked()
	b.mu.Unlock()

	select {
	case res := <-ch:
		return res, res.Err
	case <-ctx.Done():
		b.mu.Lock()
		b.q.Remove(id) // no-op if already dispatched
		delete(b.waiters, id)
		b.mu.Unlock()
		return Result{}, ctx.Err()
	}
}

// decideLocked runs the queue's decision loop, moving every ready
// dispatch to execQ, (re)arms the SLO timer for a waiting queue, and
// executes execQ (runLocked). Callers hold b.mu.
func (b *Batcher) decideLocked() {
	now := b.now()
	d, ok, wake := b.q.Decide(now, b.deviceFree)
	for ; ok; d, ok, wake = b.q.Decide(now, b.deviceFree) {
		b.execQ = append(b.execQ, timedDispatch{d: d, at: now})
		b.inflight++
	}
	b.armTimerLocked(wake)
	b.runLocked()
}

// armTimerLocked points the single SLO timer at wake (zero stops it).
func (b *Batcher) armTimerLocked(wake time.Time) {
	if wake.IsZero() {
		if b.timer != nil {
			b.timer.Stop()
			b.timerAt = time.Time{}
		}
		return
	}
	if b.timerAt.Equal(wake) {
		return
	}
	d := wake.Sub(b.now())
	if d < 0 {
		d = 0
	}
	if b.timer == nil {
		// A real timer drives flush wake-ups only; queue decisions consume explicit timestamps.
		b.timer = time.AfterFunc(d, b.onTimer)
	} else {
		b.timer.Stop()
		b.timer.Reset(d)
	}
	b.timerAt = wake
}

// onTimer fires at the queue's wake time: the SLO says dispatch.
func (b *Batcher) onTimer() {
	b.mu.Lock()
	b.timerAt = time.Time{}
	if !b.closed {
		b.decideLocked()
	}
	b.mu.Unlock()
}

// runLocked executes execQ in order, advancing the virtual device
// timeline, until it is empty — unless another goroutine is executing
// it already, which then runs what was added. Callers hold b.mu, which
// is released around each Exec.
func (b *Batcher) runLocked() {
	if b.running {
		return
	}
	b.running = true
	for len(b.execQ) > 0 {
		td := b.execQ[0]
		b.execQ = b.execQ[1:]
		b.mu.Unlock()
		service, payload, err := b.call(td.d)
		b.mu.Lock()
		start := td.at
		if b.deviceFree.After(start) {
			start = b.deviceFree
		}
		done := start.Add(service)
		if err == nil {
			b.deviceFree = done
		}
		for _, r := range td.d.Requests {
			res := Result{
				Err:       err,
				Batch:     td.d.Images,
				Requests:  len(td.d.Requests),
				Payload:   payload,
				QueueWait: td.at.Sub(r.Arrived),
				Service:   service,
				Total:     done.Sub(r.Arrived),
			}
			if err == nil && res.Total > b.cfg.SLO {
				res.Violated = true
				b.violations++
			}
			if ch, ok := b.waiters[r.ID]; ok {
				delete(b.waiters, r.ID)
				ch <- res
			}
		}
		b.inflight--
	}
	b.running = false
	for _, ch := range b.idle {
		close(ch)
	}
	b.idle = nil
}

// call runs Exec on one dispatch, turning a panic into the dispatch's
// error so the batcher stays usable.
func (b *Batcher) call(d Dispatch) (service time.Duration, payload any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batching: exec panicked: %v", r)
		}
	}()
	return b.exec(d)
}

// Drain flushes every queued request into immediate dispatches, executes
// them, and waits until all in-flight work has executed (or ctx is done;
// ctx cannot interrupt the dispatches Drain executes itself). New
// submissions remain accepted; call Close for a terminal drain.
func (b *Batcher) Drain(ctx context.Context) error {
	b.mu.Lock()
	now := b.now()
	for _, d := range b.q.Flush() {
		b.execQ = append(b.execQ, timedDispatch{d: d, at: now})
		b.inflight++
	}
	b.armTimerLocked(time.Time{})
	b.runLocked()
	if b.inflight == 0 { // nothing is executing: runLocked ran it all
		b.mu.Unlock()
		return nil
	}
	ch := make(chan struct{}) // closed when the executing goroutine finishes
	b.idle = append(b.idle, ch)
	b.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is a terminal Drain: it executes the queue and waits for
// in-flight dispatches. Subsequent Submits fail with ErrClosed; Close is
// idempotent.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	return b.Drain(context.Background())
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		QueueDepth:   b.q.Len(),
		InFlight:     b.inflight,
		ArrivalRate:  b.q.Rate(),
		Dispatches:   b.q.dispatches,
		Images:       b.q.dispatched,
		Violations:   b.violations,
		DispatchHist: b.q.Histogram(),
	}
}
