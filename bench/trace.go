package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"ios/internal/chrometrace"
	"ios/internal/gpusim"
)

// span is one timed interval at a layer boundary. All spans live in the
// benchmark's own files, around calls into each layer; nothing inside ios/...
// is instrumented.
type span struct {
	name   string
	lane   int // client number or probe lane; becomes the Chrome-trace thread
	req    int // request or key index the span belongs to
	parent int // index of the span that caused it, -1 for a root
	start  time.Duration
	end    time.Duration
}

// maxSpans bounds memory (a warm window alone is thousands of spans);
// maxFileSpans bounds the Chrome-trace file, which costs ~150 bytes a span and
// is meant to be looked at, not summed — the per-name totals cover every span.
const (
	maxSpans     = 500000
	maxFileSpans = 20000
)

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span // guarded by mu
	dropped int    // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, lane, req, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{name: name, lane: lane, req: req, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// timed runs f inside a span and returns how long it took.
func (r *recorder) timed(name string, lane, req, parent int, f func()) time.Duration {
	id := r.begin(name, lane, req, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	r.end(id)
	return d
}

// layerTime is a span name's totals.
type layerTime struct {
	count int
	total time.Duration // Σ span durations
	self  time.Duration // Σ (duration − the part its children cover)
}

// byName folds closed spans into per-name totals. A span's self time is its
// duration minus its direct children's durations; children of one parent in
// this benchmark run one after another on the parent's goroutine, so their
// durations do not overlap.
func (r *recorder) byName() map[string]layerTime {
	out := map[string]layerTime{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.end >= 0 && s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		lt := out[s.name]
		lt.count++
		lt.total += s.end - s.start
		lt.self += s.end - s.start - child[i]
		out[s.name] = lt
	}
	return out
}

// flush writes the spans as a Chrome trace through internal/chrometrace, the
// same writer iosviz uses for kernel timelines: lanes become threads, and the
// request index and parent ride in the span's name.
func (r *recorder) flush(path string) error {
	r.mu.Lock()
	tl := make(gpusim.Timeline, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		if len(tl) == maxFileSpans {
			break
		}
		name := fmt.Sprintf("%s #%d", s.name, s.req)
		if s.parent >= 0 {
			name += " <" + r.spans[s.parent].name
		}
		tl = append(tl, gpusim.KernelSpan{Name: name, Stream: s.lane, Launch: s.start.Seconds(), Start: s.start.Seconds(), End: s.end.Seconds()})
	}
	dropped := r.dropped + len(r.spans) - len(tl)
	r.mu.Unlock()

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	label := "iosbench spans"
	if dropped > 0 {
		label += fmt.Sprintf(" (first %d; %d more not written)", len(tl), dropped)
	}
	if err := chrometrace.Write(f, tl, label); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
