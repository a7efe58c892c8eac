// Custom network: build your own multi-branch CNN with the graph API,
// schedule it with IOS across two devices, verify the schedule on real
// tensors, and export the graph JSON consumable by cmd/iosopt.
//
//	go run ./examples/custom_network
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"

	"ios"
)

// buildNet defines a small multi-branch detector head: a shared trunk, an
// inception-style branch fan-out, and a pooled classifier.
func buildNet(batch int) *ios.Graph {
	g := ios.NewGraph("detector-head")
	in := g.Input("image", ios.Shape{N: batch, C: 64, H: 28, W: 28})

	trunk := g.Conv("trunk", in, ios.ConvOpts{Out: 96, Kernel: 3})

	// Branch fan-out: four parallel feature extractors of different
	// receptive fields, plus a pooled shortcut.
	b1 := g.Conv("b1_1x1", trunk, ios.ConvOpts{Out: 48, Kernel: 1})
	b2 := g.Conv("b2_3x3", trunk, ios.ConvOpts{Out: 64, Kernel: 3})
	b3a := g.Conv("b3_1x1", trunk, ios.ConvOpts{Out: 32, Kernel: 1})
	b3b := g.Conv("b3_5x5", b3a, ios.ConvOpts{Out: 48, Kernel: 5})
	b4a := g.Pool("b4_pool", trunk, ios.PoolOpts{Kernel: 3, Stride: 1, Avg: true})
	b4b := g.Conv("b4_1x1", b4a, ios.ConvOpts{Out: 32, Kernel: 1})
	cat := g.Concat("features", b1, b2, b3b, b4b)

	head := g.Conv("head", cat, ios.ConvOpts{Out: 128, Kernel: 3})
	gp := g.GlobalPool("gap", head)
	g.Matmul("logits", gp, 10)
	return g
}

func main() {
	g := buildNet(1)
	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	for _, dev := range []ios.Device{ios.V100, ios.K80} {
		eng := ios.NewEngine(dev)
		res, err := eng.Optimize(ctx, g, ios.Options{})
		if err != nil {
			log.Fatal(err)
		}
		iosLat, err := eng.Measure(ctx, g, res.Schedule)
		if err != nil {
			log.Fatal(err)
		}
		seq, err := ios.SequentialSchedule(g)
		if err != nil {
			log.Fatal(err)
		}
		seqLat, err := eng.Measure(ctx, g, seq)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s IOS %7.3f ms vs sequential %7.3f ms (%.2fx), %d stages\n",
			dev.Name+":", iosLat*1e3, seqLat*1e3, seqLat/iosLat, res.Schedule.NumStages())

		// Correctness check on real tensors: the schedule must compute
		// exactly what sequential execution computes.
		if _, err := ios.Execute(res.Schedule, "logits", 7); err != nil {
			log.Fatalf("%s schedule failed verification: %v", dev.Name, err)
		}
	}
	fmt.Println("both schedules verified on the CPU reference executor")

	// Export the graph so the CLI can re-optimize it:
	//   go run ./cmd/iosopt -graph detector_head.graph.json -device 2080ti
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	const out = "detector_head.graph.json"
	if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph exported to %s\n", out)
}
