package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// verifyEvery is how often a warm response is checked against the golden
// table inside a timed window. Every distinct answer is checked in full by the
// untimed verification pass and by every cold phase; decoding all of them in
// the window would make the generator, not the server, the larger share of the
// two cores. Every response is still checked for status 200 and a JSON body.
const verifyEvery = 16

// memWriter is the in-process stand-in for a connection: it keeps the body, or
// only counts it.
type memWriter struct {
	hdr     http.Header
	code    int
	buf     bytes.Buffer
	discard bool
	n       int
}

func (w *memWriter) Header() http.Header { return w.hdr }
func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	if w.discard {
		return len(p), nil
	}
	return w.buf.Write(p)
}

func (r request) inProcess() *http.Request {
	// NewRequest fails only on a malformed method or URL; both are constants.
	req, err := http.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	if err != nil {
		panic(err)
	}
	return req
}

// call sends r straight into a handler and returns the answer.
func call(h http.Handler, r request) (int, []byte) {
	w := &memWriter{hdr: http.Header{}}
	h.ServeHTTP(w, r.inProcess())
	return w.code, w.buf.Bytes()
}

// callDiscard is call without keeping the body: the handler-only cost.
func callDiscard(h http.Handler, r request) (status, size int) {
	w := &memWriter{hdr: http.Header{}, discard: true}
	h.ServeHTTP(w, r.inProcess())
	return w.code, w.n
}

// phaseCount is the sent / ok / failed line every phase prints.
type phaseCount struct {
	sent, ok, failed int
	firstErr         error
}

func (p *phaseCount) add(err error) {
	p.sent++
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	p.ok++
}

func (p *phaseCount) merge(q phaseCount) {
	p.sent += q.sent
	p.ok += q.ok
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

func (p phaseCount) String() string {
	s := fmt.Sprintf("sent %d ok %d failed %d", p.sent, p.ok, p.failed)
	if p.firstErr != nil {
		s += fmt.Sprintf(" (first: %v)", p.firstErr)
	}
	return s
}

// generator is the load source: one process, keep-alive connections, closed
// loop (a client sends its next request when the previous answer arrived —
// the callers of a schedule server wait for their schedule).
type generator struct {
	tr     *http.Transport
	hc     *http.Client
	golden map[string]goldenEntry
	rec    *recorder // nil unless tracing
}

func newGenerator(golden map[string]goldenEntry) *generator {
	tr := &http.Transport{MaxIdleConnsPerHost: 8}
	return &generator{tr: tr, hc: &http.Client{Transport: tr}, golden: golden}
}

func (g *generator) close() { g.tr.CloseIdleConnections() }

// do sends one request over loopback and reads the whole answer into buf.
func (g *generator) do(ctx context.Context, base string, r request, buf *bytes.Buffer) (int, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("read %s %s: %w", r.method, r.path, err)
	}
	return resp.StatusCode, nil
}

// coldResult is one timed pass over a cold list.
type coldResult struct {
	wall     time.Duration
	statuses []int
	bodies   [][]byte
	errs     []error
}

// coldPass asks base for every request in order, one at a time, and keeps the
// answers so they can be verified after the clock has stopped.
func (g *generator) coldPass(ctx context.Context, base string, list []request) coldResult {
	res := coldResult{statuses: make([]int, len(list)), bodies: make([][]byte, len(list)), errs: make([]error, len(list))}
	var buf bytes.Buffer
	start := time.Now()
	for i, r := range list {
		id := g.rec.begin("client.do.cold", 0, i, -1)
		res.statuses[i], res.errs[i] = g.do(ctx, base, r, &buf)
		g.rec.end(id)
		res.bodies[i] = append([]byte(nil), buf.Bytes()...)
	}
	res.wall = time.Since(start)
	return res
}

// verify checks a cold pass against the golden table.
func (g *generator) verify(list []request, res coldResult) phaseCount {
	var pc phaseCount
	for i, r := range list {
		err := res.errs[i]
		if err == nil {
			err = checkResponse(g.golden, r, res.statuses[i], res.bodies[i])
		}
		pc.add(err)
	}
	return pc
}

// windowResult is one warm window.
type windowResult struct {
	wall  time.Duration
	lat   []float64 // seconds per request, ascending
	bytes int64
	count phaseCount
}

// warmWindow runs one closed-loop client per sequence. A request goes to
// targets[r.node % len(targets)], which sprays a fleet evenly.
func (g *generator) warmWindow(ctx context.Context, targets []string, seqs [][]request) windowResult {
	type clientOut struct {
		lat   []float64
		bytes int64
		count phaseCount
	}
	outs := make([]clientOut, len(seqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c, seq := range seqs {
		wg.Add(1)
		go func(c int, seq []request) {
			defer wg.Done()
			out := &outs[c]
			out.lat = make([]float64, 0, len(seq))
			var buf bytes.Buffer
			for i, r := range seq {
				if ctx.Err() != nil {
					return
				}
				id := g.rec.begin("client.do.warm", c, i, -1)
				t0 := time.Now()
				status, err := g.do(ctx, targets[r.node%len(targets)], r, &buf)
				out.lat = append(out.lat, time.Since(t0).Seconds())
				g.rec.end(id)
				out.bytes += int64(buf.Len())
				switch {
				case err != nil:
				case i%verifyEvery == 0:
					err = checkResponse(g.golden, r, status, buf.Bytes())
				case status != http.StatusOK:
					err = fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, status, buf.Bytes())
				case buf.Len() == 0 || (buf.Bytes()[0] != '{' && buf.Bytes()[0] != '['):
					err = fmt.Errorf("%s %s: body is not JSON", r.method, r.path)
				}
				out.count.add(err)
			}
		}(c, seq)
	}
	wg.Wait()
	res := windowResult{wall: time.Since(start)}
	for _, o := range outs {
		res.lat = append(res.lat, o.lat...)
		res.bytes += o.bytes
		res.count.merge(o.count)
	}
	sort.Float64s(res.lat)
	return res
}
