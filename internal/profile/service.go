package profile

import (
	"ios/internal/graph"
)

// Service is a concurrent measurement service: a fixed pool of worker
// profilers that share one prepared set of lowered-kernel and
// solo-duration tables, so a parallel search can measure stages from many
// goroutines with zero cross-worker synchronization on the hot path (each
// worker owns a private simulator; the shared tables are immutable).
//
// Construct with NewService, hand Worker(i) to goroutine i (a worker
// profiler is NOT safe for concurrent use — one goroutine per worker),
// and call Close when the parallel section ends to fold the workers'
// measurement counts back into the root profiler.
type Service struct {
	root    *Profiler
	workers []*Profiler
	closed  bool
	// rootIsWorker marks the single-worker fast path: the root profiler
	// is driven directly instead of through a fork, so tiny blocks skip
	// the fork's backend construction and table setup entirely (the
	// SqueezeNet small-block overhead fix). Measurements then accrue on
	// the root as they happen; Close folds nothing.
	rootIsWorker bool
}

// NewService prepares the root profiler for the given nodes (lowering
// each and computing its solo duration, counted on the root exactly as
// lazy computation would have been) and forks `workers` worker profilers
// that share the resulting immutable tables. A single-worker service
// skips the fork and hands out the root itself: the caller's one
// goroutine drives it exactly as lazy sequential code would have.
func NewService(root *Profiler, nodes []*graph.Node, workers int) *Service {
	if workers < 1 {
		workers = 1
	}
	root.Prelower(nodes)
	s := &Service{root: root}
	if workers == 1 {
		s.workers = []*Profiler{root}
		s.rootIsWorker = true
		return s
	}
	s.workers = make([]*Profiler, workers)
	for i := range s.workers {
		s.workers[i] = root.Fork()
	}
	return s
}

// Workers returns the pool size.
func (s *Service) Workers() int { return len(s.workers) }

// Worker returns the i-th worker profiler. Each worker must be driven by
// at most one goroutine at a time.
func (s *Service) Worker(i int) *Profiler { return s.workers[i] }

// Root returns the profiler the service was built from.
func (s *Service) Root() *Profiler { return s.root }

// Close folds every worker's measurement count into the root profiler so
// callers that track search cost through the root (as a core search does)
// observe the same totals a single-threaded search would have produced.
// Close is idempotent and must be called after all workers are quiescent.
func (s *Service) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.rootIsWorker {
		return // the root is the worker; its count is already in place
	}
	for _, w := range s.workers {
		s.root.Measurements += w.Measurements
	}
}
