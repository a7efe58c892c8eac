// Inception serving: the paper's headline scenario — batch-one inference
// of Inception V3 on a Tesla V100, where intra-operator parallelism cannot
// fill the GPU. The example optimizes the network with IOS, compares the
// result against the sequential/greedy schedules, and saves the schedule
// recipe as JSON for deployment.
//
//	go run ./examples/inception_serving
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"

	"ios"
)

func main() {
	const batch = 1
	g := ios.InceptionV3(batch)
	fmt.Printf("%s: %d operators\n", g.Name, len(g.SchedulableNodes()))

	ctx := context.Background()
	eng := ios.NewEngine(ios.V100)
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
	grd, err := ios.GreedySchedule(g)
	if err != nil {
		log.Fatal(err)
	}
	grdLat, err := eng.Measure(ctx, g, grd)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sequential: %6.3f ms (%6.1f img/s)\n", seqLat*1e3, batch/seqLat)
	fmt.Printf("greedy:     %6.3f ms (%6.1f img/s)\n", grdLat*1e3, batch/grdLat)
	fmt.Printf("IOS:        %6.3f ms (%6.1f img/s)  %.2fx over sequential, %.2fx over greedy\n",
		iosLat*1e3, batch/iosLat, seqLat/iosLat, grdLat/iosLat)
	fmt.Printf("search cost: %v (%d stage measurements)\n",
		res.Stats.WallTime.Round(1000000), res.Stats.Measurements)

	// Persist the schedule recipe; cmd/iosviz can render it and a serving
	// binary would load it next to the weights.
	data, err := json.MarshalIndent(res.Schedule, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	const out = "inception_v100_bs1.schedule.json"
	if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule recipe written to %s (%d stages)\n", out, res.Schedule.NumStages())
}
