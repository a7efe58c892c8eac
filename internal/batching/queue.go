// Package batching is the traffic-adaptive auto-batching front end:
// it coalesces a stream of single-image (or small-batch) inference
// requests into batches under a per-request latency SLO, choosing every
// dispatch size from a batch-specialization plan's *measured*
// performance model (internal/plan's cross-batch latency matrix and
// per-batch throughput) instead of hardcoded thresholds. At each
// decision point the queue compares "dispatch the current queue now"
// against "wait for more arrivals and dispatch bigger": waiting wins
// only when the model says the bigger batch's amortized per-image
// latency is strictly better AND the expected wait — derived from the
// observed arrival rate — still meets the oldest queued request's SLO.
// No dispatch exceeds the model's largest planned batch, past which the
// model would extrapolate.
//
// The package splits into a deterministic core and an asynchronous
// wrapper: Queue is a pure state machine over (arrivals, explicit
// timestamps) with no goroutines, timers, or sleeps — unit tests and
// the virtual-time traffic simulator (Simulate*) drive it with a fake
// clock — while Batcher wraps a Queue with real timers, serialized
// execution on the goroutines that decide dispatches, and a virtual
// device timeline for the serving tier.
package batching

import (
	"fmt"
	"time"

	"ios/internal/plan"
)

// Model is the measured performance model dispatch decisions consult.
// *plan.Plan implements it; tests substitute analytic fakes.
type Model interface {
	// Batches returns the model's planned batch sizes in ascending
	// order — the dispatch sizes with first-class measured data.
	Batches() []int
	// EstimateLatency returns the latency in seconds of dispatching a
	// batch of the given size, derived from measurements (see
	// plan.Plan.EstimateLatency).
	EstimateLatency(batch int) float64
}

// plan.Plan must keep satisfying Model.
var _ Model = (*plan.Plan)(nil)

// Config configures a Queue (and, via Batcher, the serving front end).
type Config struct {
	// Model is the measured performance model (required).
	Model Model
	// SLO is the per-request latency target: the batcher never chooses
	// to wait past the point where the oldest queued request could still
	// be served within it (required, > 0). Requests can still miss the
	// SLO when the device is backlogged — violations are counted, not
	// masked.
	SLO time.Duration
}

// rateAlpha is the EWMA weight of each new arrival-gap observation in
// the arrival-rate estimate: small enough to smooth bursts, large enough
// to track a changed rate within a few arrivals.
const rateAlpha = 0.2

// Request is one queued inference request.
type Request struct {
	// ID identifies the request to its submitter.
	ID uint64
	// Images is the request's own batch contribution (>= 1; a plain
	// single-image request is 1).
	Images int
	// Arrived is when the request entered the queue.
	Arrived time.Time
}

// Dispatch is one decided batch: the coalesced requests and the model
// estimates the decision used.
type Dispatch struct {
	// Requests are the coalesced requests, oldest first.
	Requests []Request
	// Images is the dispatch's total batch size.
	Images int
	// EstLatency is the model's latency estimate for this batch size —
	// the figure the decision compared, not a measurement of this run.
	EstLatency time.Duration
}

// Queue is the deterministic auto-batching decision core: a state
// machine over explicit timestamps with no internal clock, goroutines,
// or timers. It is NOT safe for concurrent use — Batcher (or a
// simulator) serializes access and owns real time.
type Queue struct {
	model    Model
	slo      time.Duration
	maxBatch int   // the dispatch cap: the largest planned batch, past which the model extrapolates
	points   []int // ascending planned batch sizes

	pending []Request
	images  int // total queued images

	// Arrival-rate EWMA over inter-arrival gaps. burst accumulates
	// images that share lastArrival's timestamp until a measurable gap
	// converts them into a rate observation.
	rate        float64 // images per second; 0 = unknown
	lastArrival time.Time
	burst       int
	haveArrival bool

	dispatches int64
	dispatched int64
	hist       map[int]int64
}

// NewQueue validates the config and returns an empty queue.
func NewQueue(cfg Config) (*Queue, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("batching: Config.Model is required")
	}
	if cfg.SLO <= 0 {
		return nil, fmt.Errorf("batching: Config.SLO must be positive, got %v", cfg.SLO)
	}
	points := cfg.Model.Batches()
	if len(points) == 0 {
		return nil, fmt.Errorf("batching: model has no planned batches")
	}
	for i, b := range points {
		if b < 1 || (i > 0 && b <= points[i-1]) {
			return nil, fmt.Errorf("batching: model batches %v not ascending positive", points)
		}
		if lat := cfg.Model.EstimateLatency(b); lat <= 0 {
			return nil, fmt.Errorf("batching: model latency at batch %d is %v (must be positive)", b, lat)
		}
	}
	return &Queue{
		model:    cfg.Model,
		slo:      cfg.SLO,
		maxBatch: points[len(points)-1],
		points:   points,
		hist:     make(map[int]int64),
	}, nil
}

// Add enqueues a request at the given time and feeds the arrival-rate
// estimator. Call Decide afterwards — Add itself never dispatches.
func (q *Queue) Add(now time.Time, r Request) error {
	if r.Images < 1 {
		return fmt.Errorf("batching: request images %d < 1", r.Images)
	}
	if r.Arrived.IsZero() {
		r.Arrived = now
	}
	switch {
	case !q.haveArrival:
		q.haveArrival = true
		q.lastArrival = now
		q.burst = r.Images
	case !now.After(q.lastArrival):
		// Same (or non-monotone) timestamp: fold into the current burst;
		// the gap to the next distinct arrival prices the whole burst.
		q.burst += r.Images
	default:
		gap := now.Sub(q.lastArrival).Seconds()
		inst := float64(q.burst) / gap
		if q.rate == 0 {
			q.rate = inst
		} else {
			q.rate = rateAlpha*inst + (1-rateAlpha)*q.rate
		}
		q.lastArrival = now
		q.burst = r.Images
	}
	q.pending = append(q.pending, r)
	q.images += r.Images
	return nil
}

// Remove retracts a still-queued request (e.g. its client went away
// before dispatch). It reports whether the request was found.
func (q *Queue) Remove(id uint64) bool {
	for i, r := range q.pending {
		if r.ID == id {
			q.images -= r.Images
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return true
		}
	}
	return false
}

// Len returns the number of queued images.
func (q *Queue) Len() int { return q.images }

// Requests returns the number of queued requests.
func (q *Queue) Requests() int { return len(q.pending) }

// Rate returns the current arrival-rate estimate in images per second
// (0 until two gapped arrivals have been observed).
func (q *Queue) Rate() float64 { return q.rate }

// lat returns the model latency for a batch size as a float of seconds.
func (q *Queue) lat(batch int) float64 { return q.model.EstimateLatency(batch) }

// frontSize returns how many images the next dispatch would carry:
// requests are atomic, so it takes whole requests from the front while
// staying within maxBatch (always at least the first request).
func (q *Queue) frontSize() int {
	size := 0
	for i, r := range q.pending {
		if i > 0 && size+r.Images > q.maxBatch {
			break
		}
		size += r.Images
	}
	return size
}

// Decide evaluates the queue at the given time against the measured
// model. busyUntil is the device's virtual free time (zero or past =
// idle): a dispatch decided now cannot start executing before it, which
// shrinks the SLO headroom available for waiting.
//
// It returns either a Dispatch (dispatch=true; the dispatched requests
// are removed from the queue — call Decide again, more may be ready) or
// a wake time (dispatch=false): the caller must re-Decide at that time,
// or earlier on any arrival. A zero wake time means the queue is empty.
//
// The decision rule, entirely in terms of the model's measurements and
// the observed arrival rate λ:
//
//	q      = images the front dispatch would carry
//	L(b)   = model latency at batch b
//	d      = oldest request's arrival + SLO  (its deadline)
//	wait(b) = (b − q)/λ            (expected time to grow the queue to b)
//
// Waiting for a planned batch b > q is eligible iff the amortized
// per-image latency strictly improves (L(b)/b < L(q)/q) and the oldest
// request still meets its SLO after the wait (start(now+wait(b)) + L(b)
// <= d, where start accounts for busyUntil). If any eligible b exists,
// the queue waits — but never past d − L(q) (adjusted for busyUntil),
// the last instant the current queue can dispatch and still make its
// deadline. With no eligible target (including λ still unknown) it
// dispatches immediately.
func (q *Queue) Decide(now time.Time, busyUntil time.Time) (d Dispatch, dispatch bool, wake time.Time) {
	if len(q.pending) == 0 {
		return Dispatch{}, false, time.Time{}
	}
	size := q.frontSize()
	Lq := q.lat(size)
	deadline := q.pending[0].Arrived.Add(q.slo)
	// start(t): when a dispatch decided at t begins executing.
	start := func(t time.Time) time.Time {
		if busyUntil.After(t) {
			return busyUntil
		}
		return t
	}

	// The last moment the current queue can go and still meet its SLO.
	// If that moment is already past (or the device is so backlogged no
	// moment works), waiting cannot help anything — dispatch, shrunk to
	// the largest front prefix that still meets the oldest deadline
	// (a late arrival can grow L(queue) past the remaining headroom;
	// leaving the newest requests queued keeps the oldest inside its
	// SLO, and their own later deadlines get their own decisions).
	lastCall := deadline.Add(-durationOf(Lq))
	if !lastCall.After(now) || start(now).Add(durationOf(Lq)).After(deadline) {
		size, Lq = q.fitFront(now, start, deadline)
		return q.pop(size, Lq), true, time.Time{}
	}

	target := 0
	if q.rate > 0 && size < q.maxBatch {
		perImage := Lq / float64(size)
		for _, b := range q.points {
			if b <= size || b > q.maxBatch {
				continue
			}
			Lb := q.lat(b)
			if Lb/float64(b) >= perImage {
				continue // bigger batch does not amortize better
			}
			wait := time.Duration(float64(b-size) / q.rate * float64(time.Second))
			if start(now.Add(wait)).Add(durationOf(Lb)).After(deadline) {
				continue // expected wait would blow the oldest SLO
			}
			target = b // keep the largest eligible target
		}
	}
	if target == 0 {
		return q.pop(size, Lq), true, time.Time{}
	}
	return Dispatch{}, false, lastCall
}

// fitFront sizes a deadline-pressed dispatch: the largest whole-request
// front prefix (within maxBatch) whose model latency still lets the
// oldest request meet its deadline when started now. When even the
// first request alone is late, it falls back to the full front — the
// oldest SLO is lost either way, so throughput wins.
func (q *Queue) fitFront(now time.Time, start func(time.Time) time.Time, deadline time.Time) (int, float64) {
	best, bestLat := 0, 0.0
	sum := 0
	for i, r := range q.pending {
		if i > 0 && sum+r.Images > q.maxBatch {
			break
		}
		sum += r.Images
		if lat := q.lat(sum); !start(now).Add(durationOf(lat)).After(deadline) {
			best, bestLat = sum, lat
		}
	}
	if best == 0 {
		full := q.frontSize()
		return full, q.lat(full)
	}
	return best, bestLat
}

// Flush drains the whole queue into immediate dispatches of at most
// the largest planned batch each (shutdown/drain path: SLO and throughput
// considerations no longer apply, every queued request must go).
func (q *Queue) Flush() []Dispatch {
	var out []Dispatch
	for len(q.pending) > 0 {
		size := q.frontSize()
		out = append(out, q.pop(size, q.lat(size)))
	}
	return out
}

// pop removes the front requests covering size images and records the
// dispatch in the stats.
func (q *Queue) pop(size int, lat float64) Dispatch {
	n, got := 0, 0
	for n < len(q.pending) && got < size {
		got += q.pending[n].Images
		n++
	}
	reqs := make([]Request, n)
	copy(reqs, q.pending[:n])
	q.pending = append(q.pending[:0], q.pending[n:]...)
	q.images -= got
	q.dispatches++
	q.dispatched += int64(got)
	q.hist[got]++
	return Dispatch{Requests: reqs, Images: got, EstLatency: durationOf(lat)}
}

// Histogram returns a copy of the dispatch-size histogram: how many
// dispatches carried each image count. Feed it to
// plan.Plan.SuggestBatches to pick sweep points for the traffic
// actually observed.
func (q *Queue) Histogram() map[int]int64 {
	out := make(map[int]int64, len(q.hist))
	for k, v := range q.hist {
		out[k] = v
	}
	return out
}

// durationOf converts seconds to a time.Duration.
func durationOf(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
