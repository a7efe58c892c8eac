// Batch specialization: Section 7.2's study on the last block of Inception
// V3, driven by the batch-plan subsystem. Engine.OptimizeBatches runs one
// IOS search per batch size (in order, on the engine's caches) and
// measures the full cross-batch matrix; the plan then answers routing
// questions — which schedule should serve batch 7? at what penalty? —
// exactly the way the serving tier (iosserve -plan-batches) does.
//
//	go run ./examples/batch_specialization
package main

import (
	"context"
	"fmt"
	"log"

	"ios"
)

func main() {
	ctx := context.Background()
	eng := ios.NewEngine(ios.V100)
	g := ios.InceptionE(1)

	plan, err := eng.OptimizeBatches(ctx, g, []int{1, 32}, ios.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range plan.Points {
		fmt.Printf("optimized for batch %d: %d stages, %.3f ms\n",
			pt.Batch, pt.Schedule.NumStages(), 1e3*pt.Latency)
	}
	fmt.Println()

	// The measured cross-batch matrix (the paper's Table 3 shape): the
	// diagonal should win every column.
	fmt.Println("cross-execution latency (ms):")
	fmt.Printf("%-18s", "execute \\ opt for")
	for _, b := range plan.Batches() {
		fmt.Printf(" %12s", fmt.Sprintf("batch %d", b))
	}
	fmt.Println()
	for j, execB := range plan.Batches() {
		fmt.Printf("batch %-12d", execB)
		for i := range plan.Batches() {
			fmt.Printf(" %12.3f", 1e3*plan.Latency[i][j])
		}
		fmt.Println()
	}
	if err := plan.DiagonalWins(); err != nil {
		log.Fatalf("specialization property violated: %v", err)
	}
	fmt.Println("(the diagonal wins: specialization matters)")
	fmt.Println()

	// Nearest-batch routing, as the serving tier performs it.
	for _, b := range []int{1, 7, 32, 64} {
		pt, penalty, exact := plan.Route(b)
		fmt.Printf("serve batch %-3d -> schedule specialized at batch %-3d (exact=%v, penalty %.3f)\n",
			b, pt.Batch, exact, penalty)
	}
}
