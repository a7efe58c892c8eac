package ios

import (
	"io"

	"ios/internal/plan"
)

// Batch-specialization layer: re-exports of internal/plan so applications
// can build, persist, and route batch plans without touching internal
// packages. Engine.OptimizeBatches produces plans; Server.RegisterPlan and
// Server-side warm-up (iosserve -plan-batches) consume them for
// nearest-batch routing.

type (
	// BatchPlan holds one IOS schedule specialized per batch size of a
	// sweep plus the measured cross-batch latency matrix (schedule
	// specialized at batch i, executed at batch j — the paper's Table 3
	// shape). Route resolves a requested batch to the nearest specialized
	// schedule with its recorded reuse penalty.
	BatchPlan = plan.Plan
	// BatchPoint is one sweep point of a BatchPlan: the graph at a batch
	// size and the schedule specialized for it.
	BatchPoint = plan.Point
)

// LoadBatchPlan reads a plan previously written with BatchPlan.Save. Like
// BlockCache.Load it is all-or-nothing: a corrupt, truncated, or
// version-mismatched file returns an error, never a half-usable plan.
func LoadBatchPlan(r io.Reader) (*BatchPlan, error) { return plan.Load(r) }

// LoadBatchPlanFile reads the plan file at path; see LoadBatchPlan.
func LoadBatchPlanFile(path string) (*BatchPlan, error) { return plan.LoadFile(path) }
