package batching

import (
	"math/rand"
	"sort"
	"time"
)

// This file is the synthetic-traffic side of the front end: a seeded
// Poisson arrival generator plus a virtual-time simulator that drives a
// Queue through an arrival trace against a serial device whose service
// times come from the same measured model (the fixed-batch and
// dispatch-immediately baselines live with the tests).
// TestSimulateAdaptiveBeatsBatch1 runs the adaptive policy against
// dispatch-immediately on a Poisson trace, and the benchmark's
// batching.sim_* rows run it on one. No real time passes: the simulators
// are event loops over explicit timestamps, so runs are deterministic
// given the seed.

// PoissonArrivals generates n single-image arrival offsets (from a zero
// origin, ascending) with exponential inter-arrival gaps at the given
// rate in images per second. The same seed yields the same trace.
func PoissonArrivals(n int, rate float64, seed int64) []time.Duration {
	if n <= 0 || rate <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = durationOf(t)
	}
	return out
}

// SimResult aggregates a simulated serving run over one arrival trace.
type SimResult struct {
	// Policy names the dispatch policy that produced the run.
	Policy string `json:"policy"`
	// Requests and Images count the trace (identical when every request
	// is single-image).
	Requests int `json:"requests"`
	Images   int `json:"images"`
	// Duration is the makespan: first arrival to last completion.
	Duration time.Duration `json:"-"`
	// ImagesPerSec is Images over the makespan.
	ImagesPerSec float64 `json:"images_per_sec"`
	// P50/P99/Max/Mean summarize per-request total latency (arrival to
	// completion).
	P50  time.Duration `json:"-"`
	P99  time.Duration `json:"-"`
	Max  time.Duration `json:"-"`
	Mean time.Duration `json:"-"`
	// SLOViolations counts requests whose total latency exceeded the SLO.
	SLOViolations int `json:"slo_violations"`
	// Dispatches counts device launches; MeanBatch is Images/Dispatches.
	Dispatches int     `json:"dispatches"`
	MeanBatch  float64 `json:"mean_batch"`
	// DispatchHist maps dispatch size -> count.
	DispatchHist map[int]int64 `json:"-"`
}

// SimulateAdaptive runs the auto-batching Queue over the arrival trace
// (offsets from a zero origin, each one single-image request) against a
// serial device whose service time for a batch is the model's estimate.
// cfg.Model supplies both the decisions and the device — the simulation
// measures the policy, not the hardware.
func SimulateAdaptive(cfg Config, arrivals []time.Duration) (SimResult, error) {
	q, err := NewQueue(cfg)
	if err != nil {
		return SimResult{}, err
	}
	base := time.Unix(0, 0)
	lat := make([]time.Duration, len(arrivals))
	deviceFree := base
	// dispatchAt runs the queue's decision loop at now, executing every
	// ready dispatch on the virtual device, and returns the queue's wake
	// time (zero when nothing is left waiting).
	dispatchAt := func(now time.Time) time.Time {
		for {
			d, ok, wake := q.Decide(now, deviceFree)
			if !ok {
				return wake
			}
			start := now
			if deviceFree.After(start) {
				start = deviceFree
			}
			done := start.Add(durationOf(cfg.Model.EstimateLatency(d.Images)))
			deviceFree = done
			for _, r := range d.Requests {
				lat[r.ID] = done.Sub(r.Arrived)
			}
		}
	}

	// Event loop: the next event is either the next arrival or the
	// queue's pending wake time (its SLO last-call, carried over from the
	// previous decision). Decide guarantees wake > the time it was
	// computed at, and a Decide at its own wake time dispatches, so the
	// loop always advances.
	i := 0
	var wake time.Time
	for i < len(arrivals) || q.Requests() > 0 {
		var next time.Time
		switch {
		case q.Requests() == 0:
			next = base.Add(arrivals[i])
		case i < len(arrivals) && base.Add(arrivals[i]).Before(wake):
			next = base.Add(arrivals[i])
		default:
			next = wake
		}
		for i < len(arrivals) && !base.Add(arrivals[i]).After(next) {
			at := base.Add(arrivals[i])
			if err := q.Add(at, Request{ID: uint64(i), Images: 1, Arrived: at}); err != nil {
				return SimResult{}, err
			}
			i++
		}
		wake = dispatchAt(next)
	}
	return summarize("adaptive", arrivals, lat, cfg.SLO, deviceFree.Sub(base), q.dispatches, q.Histogram()), nil
}

// summarize folds per-request latencies into a SimResult.
func summarize(policy string, arrivals []time.Duration, lat []time.Duration, slo, makespan time.Duration, dispatches int64, hist map[int]int64) SimResult {
	res := SimResult{
		Policy:       policy,
		Requests:     len(arrivals),
		Images:       len(arrivals),
		Duration:     makespan,
		Dispatches:   int(dispatches),
		DispatchHist: hist,
	}
	if len(lat) == 0 {
		return res
	}
	sorted := make([]time.Duration, len(lat))
	copy(sorted, lat)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, l := range lat {
		sum += l
		if l > slo {
			res.SLOViolations++
		}
	}
	res.P50 = sorted[len(sorted)/2]
	res.P99 = sorted[(len(sorted)*99)/100]
	res.Max = sorted[len(sorted)-1]
	res.Mean = sum / time.Duration(len(lat))
	if makespan > 0 {
		res.ImagesPerSec = float64(res.Images) / makespan.Seconds()
	}
	if dispatches > 0 {
		res.MeanBatch = float64(res.Images) / float64(dispatches)
	}
	return res
}
