package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ios/internal/batching"
)

// This file is the serving tier's traffic-adaptive auto-batching front
// end: POST /infer accepts single-image (or small-batch) inference
// requests and coalesces them into batches before answering from the
// matching registered batch-specialization plan. Dispatch sizes, up to
// the plan's largest planned batch, are chosen by internal/batching from
// the plan's measured performance model under the configured SLO — the
// server holds a request only when the plan's own matrix says a bigger
// batch amortizes better AND the observed arrival rate says the wait
// still meets the oldest request's deadline. One Batcher exists per
// registered plan, created lazily on the plan's first /infer request.

// BatchingConfig enables the auto-batching front end and sets its SLO.
type BatchingConfig struct {
	// SLO is the per-request latency target the dispatch decisions
	// respect (required, > 0). Violations are counted in /stats, not
	// masked.
	SLO time.Duration
}

// InferRequest is the body of POST /infer. Model names a zoo network
// with a registered batch-specialization plan; Images is the request's
// own batch contribution (default 1 — a plain single-image request).
// Device selects the plan the same way /optimize resolves its key.
type InferRequest struct {
	Model  string `json:"model"`
	Images int    `json:"images,omitempty"`
	Device string `json:"device,omitempty"`
}

// InferResponse is the body of a successful POST /infer: how the
// request's dispatch was routed and timed. Latency figures are the
// plan's measured values for the dispatched batch — the same numbers
// the dispatch decision compared.
type InferResponse struct {
	Model   string `json:"model"`
	Device  string `json:"device"`
	Options string `json:"options"`
	// Images is the request's own contribution; DispatchImages and
	// DispatchRequests describe the coalesced batch it rode in.
	Images           int `json:"images"`
	DispatchImages   int `json:"dispatch_images"`
	DispatchRequests int `json:"dispatch_requests"`
	// Plan reports the routing of the dispatched batch (its planned
	// batch, exactness, and reuse penalty).
	Plan PlanRoute `json:"plan"`
	// LatencyMS is the dispatched batch's measured service latency;
	// QueueWaitMS is time spent queued before dispatch; TotalMS adds any
	// device backlog and is the figure compared against SLOMS.
	LatencyMS   float64 `json:"latency_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	TotalMS     float64 `json:"total_ms"`
	SLOMS       float64 `json:"slo_ms"`
	Violated    bool    `json:"violated"`
}

// BatcherStats is one plan's auto-batcher in GET /stats.
type BatcherStats struct {
	Model   string `json:"model"`
	Device  string `json:"device"`
	Options string `json:"options"`
	// QueueDepth and InFlight describe the instantaneous state;
	// ArrivalRate is the observed arrival-rate estimate in images/sec.
	QueueDepth  int     `json:"queue_depth"`
	InFlight    int     `json:"in_flight"`
	ArrivalRate float64 `json:"arrival_rate"`
	// Dispatches/Images/Violations are lifetime counters; DispatchHist
	// maps dispatch size to count.
	Dispatches   int64         `json:"dispatches"`
	Images       int64         `json:"images"`
	Violations   int64         `json:"violations"`
	DispatchHist map[int]int64 `json:"dispatch_hist"`
	// SuggestedBatches are the sweep points plan.SuggestBatches picks
	// from the observed dispatch histogram — the batches a plan rebuild
	// should specialize for this traffic (empty until traffic arrives).
	SuggestedBatches []int `json:"suggested_batches,omitempty"`
}

// BatchStats reports the auto-batching front end in GET /stats.
type BatchStats struct {
	// Enabled reports whether the server was configured with a
	// BatchingConfig (POST /infer answers 404 otherwise).
	Enabled bool    `json:"enabled"`
	SLOMS   float64 `json:"slo_ms,omitempty"`
	// Batchers lists the per-plan batchers created so far, sorted by
	// (model, device, options).
	Batchers []BatcherStats `json:"batchers,omitempty"`
}

// submit queues a request on its plan's auto-batcher, creating it on the
// plan's first /infer request: the caller found the plan, and plans are
// replaced, never removed. Under planMu a batcher only joins the current
// record, where a replacement finds it to close. Its Exec answers each
// dispatch from the record like /optimize would and reports the plan's
// measured latency for the batch as the service time, so the virtual
// device timeline and the /stats plan counters see the numbers a sequence
// of individual requests would have produced.
func (s *Server) submit(ctx context.Context, res *resolved) (batching.Result, error) {
	s.planMu.Lock()
	rec := s.plans[planKey{res.key.Model, res.key.Device, res.key.Opts}]
	if rec.batcher == nil {
		spec, p := res.spec, rec.plan
		exec := func(d batching.Dispatch) (time.Duration, any, error) {
			// A dispatch serves many requests, so no one request's context
			// governs its answer.
			e, err := s.plannedEntry(context.Background(), spec, rec, d.Images)
			if err != nil {
				return 0, nil, err
			}
			s.recordRoute(e.route.Penalty, e.route.Exact)
			return time.Duration(e.Latency * float64(time.Second)), *e.route, nil
		}
		b, err := batching.NewBatcher(batching.Config{Model: p, SLO: s.cfg.Batching.SLO}, exec)
		if err != nil {
			s.planMu.Unlock()
			return batching.Result{}, fmt.Errorf("serve: batcher for plan %s/%s/%s: %w", p.Model, p.Device, p.Opts, err)
		}
		rec.batcher = b
	}
	b := rec.batcher
	s.planMu.Unlock()
	return b.Submit(ctx, res.batch)
}

func (s *Server) handleInfer(ctx context.Context, req *InferRequest) (answer, error) {
	if req.Model == "" {
		return answer{}, badRequest(fmt.Errorf("\"model\" is required (/infer serves zoo models with registered plans)"))
	}
	if req.Images == 0 {
		req.Images = 1
	}
	res, err := s.resolve(req.Model, nil, req.Images, req.Device)
	if err != nil {
		return answer{}, badRequest(err)
	}
	if s.planFor(res.key) == nil {
		return answer{}, &statusError{http.StatusNotFound, fmt.Errorf("no registered plan for %s/%s/%s (warm one with -warm + -plan-batches, or POST /optimize for unplanned serving)",
			res.key.Model, res.key.Device, res.key.Opts)}
	}
	result, err := s.submit(ctx, res)
	if errors.Is(err, batching.ErrClosed) {
		// A re-registration retired the batcher between lookup and submit:
		// retry once, on the record that replaced it.
		result, err = s.submit(ctx, res)
	}
	if err != nil {
		return answer{}, err
	}
	route := result.Payload.(PlanRoute)
	resp := InferResponse{
		Model:            res.key.Model,
		Device:           res.spec.Name,
		Options:          res.key.Opts,
		Images:           res.batch,
		DispatchImages:   result.Batch,
		DispatchRequests: result.Requests,
		Plan:             route,
		LatencyMS:        float64(result.Service) / float64(time.Millisecond),
		QueueWaitMS:      float64(result.QueueWait) / float64(time.Millisecond),
		TotalMS:          float64(result.Total) / float64(time.Millisecond),
		SLOMS:            float64(s.cfg.Batching.SLO) / float64(time.Millisecond),
		Violated:         result.Violated,
	}
	s.logf("infer %s images=%d dispatch=%d planned=%d exact=%v penalty=%.3f total=%.3fms",
		res.key.Model, res.batch, result.Batch, route.PlannedBatch, route.Exact, route.Penalty, resp.TotalMS)
	return answer{v: resp}, nil
}

// batchStats snapshots the auto-batching front end for GET /stats.
func (s *Server) batchStats() BatchStats {
	st := BatchStats{Enabled: s.cfg.Batching != nil}
	if !st.Enabled {
		return st
	}
	st.SLOMS = float64(s.cfg.Batching.SLO) / float64(time.Millisecond)
	for _, r := range s.registry() {
		if r.batcher == nil {
			continue
		}
		bs, p := r.batcher.Stats(), r.plan
		row := BatcherStats{
			Model:        p.Model,
			Device:       p.Device,
			Options:      p.Opts,
			QueueDepth:   bs.QueueDepth,
			InFlight:     bs.InFlight,
			ArrivalRate:  bs.ArrivalRate,
			Dispatches:   bs.Dispatches,
			Images:       bs.Images,
			Violations:   bs.Violations,
			DispatchHist: bs.DispatchHist,
		}
		if len(bs.DispatchHist) > 0 {
			weights := make(map[int]float64, len(bs.DispatchHist))
			for b, c := range bs.DispatchHist {
				weights[b] = float64(c)
			}
			row.SuggestedBatches = p.SuggestBatches(weights, len(p.Points))
		}
		st.Batchers = append(st.Batchers, row)
	}
	return st
}

// DrainBatchers flushes every auto-batcher's queue into immediate
// dispatches and waits for the in-flight work to execute (or ctx to
// end). Call it on shutdown BEFORE stopping the HTTP server: queued
// /infer requests complete immediately instead of waiting out their SLO
// headroom inside the server's drain window.
func (s *Server) DrainBatchers(ctx context.Context) error {
	for _, r := range s.registry() {
		if r.batcher == nil {
			continue
		}
		if err := r.batcher.Drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

// CloseBatchers drains and permanently stops every auto-batcher
// (subsequent /infer submits to them fail). The server remains usable
// for every other endpoint.
func (s *Server) CloseBatchers() error {
	var first error
	for _, r := range s.registry() {
		if r.batcher == nil {
			continue
		}
		if err := r.batcher.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
