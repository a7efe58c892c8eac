package ios

import (
	"time"

	"ios/internal/batching"
	"ios/internal/serve"
)

// Auto-batching layer: re-exports of internal/batching so applications
// can run the traffic-adaptive front end against their own executors
// without touching internal packages. A Batcher coalesces concurrent
// single-image requests into batches chosen from a BatchPlan's measured
// latency matrix under a latency SLO: it waits for more arrivals only
// when the plan's own measurements say a bigger planned batch amortizes
// better AND the observed arrival rate says the wait still meets the
// oldest request's deadline. The serving tier exposes the same machinery
// over HTTP as POST /infer (ServerConfig.Batching, iosserve -auto-batch).

type (
	// Batcher is the concurrent auto-batching queue: Submit blocks until
	// the request's coalesced dispatch has executed.
	Batcher = batching.Batcher
	// BatcherConfig configures NewBatcher: the measured model driving
	// decisions (a *BatchPlan satisfies it) and the per-request SLO.
	BatcherConfig = batching.Config
	// BatcherModel is the measured performance model a Batcher consults:
	// the planned batch sizes and the measured latency estimate at each.
	BatcherModel = batching.Model
	// BatchDispatch is one coalesced batch handed to the executor.
	BatchDispatch = batching.Dispatch
	// BatchResult is Submit's per-request outcome: timing split into
	// queue wait and service plus the dispatch it rode in.
	BatchResult = batching.Result
	// BatcherStats is a Batcher state snapshot (queue depth, arrival
	// rate, dispatch-size histogram, SLO violations).
	BatcherStats = batching.Stats
	// ServerBatchingConfig enables the auto-batching front end on a
	// Server (POST /infer); nil disables it.
	ServerBatchingConfig = serve.BatchingConfig
)

// NewBatcher returns an auto-batcher that hands coalesced dispatches to
// exec.
func NewBatcher(cfg BatcherConfig, exec batching.Exec) (*Batcher, error) {
	return batching.NewBatcher(cfg, exec)
}

// PoissonArrivals generates a seeded memoryless arrival trace (offsets
// from a zero origin) at rate images per second — the synthetic traffic
// the benchmark suite drives batchers with.
func PoissonArrivals(n int, rate float64, seed int64) []time.Duration {
	return batching.PoissonArrivals(n, rate, seed)
}
