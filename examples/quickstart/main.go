// Quickstart: optimize the paper's Figure 2 block with IOS and compare the
// discovered schedule against the sequential and greedy baselines on a
// simulated Tesla V100.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"ios"
)

func main() {
	// The Figure 2 computation graph: four convolutions where b depends
	// on a, and a concat of b, c, d.
	g := ios.Figure2Block(1)

	// Baselines.
	seq, err := ios.SequentialSchedule(g)
	if err != nil {
		log.Fatal(err)
	}
	grd, err := ios.GreedySchedule(g)
	if err != nil {
		log.Fatal(err)
	}

	// IOS with the paper's default pruning (r=3, s=8).
	ctx := context.Background()
	eng := ios.NewEngine(ios.V100)
	res, err := eng.Optimize(ctx, g, ios.Options{})
	if err != nil {
		log.Fatal(err)
	}

	for _, entry := range []struct {
		name  string
		sched *ios.Schedule
	}{
		{"sequential", seq},
		{"greedy", grd},
		{"IOS", res.Schedule},
	} {
		lat, err := eng.Measure(ctx, g, entry.sched)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %6.3f ms, %d stages\n", entry.name, lat*1e3, entry.sched.NumStages())
	}

	fmt.Println()
	fmt.Print(res.Schedule)
	fmt.Printf("search: %d states, %d transitions, %v\n",
		res.Stats.States, res.Stats.Transitions, res.Stats.WallTime.Round(1000))

	// Prove the schedule computes the same function as the plain graph by
	// running it over real tensors on the CPU reference executor.
	if _, err := ios.Execute(res.Schedule, "concat", 1); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Println("schedule verified against sequential execution on real tensors")
}
