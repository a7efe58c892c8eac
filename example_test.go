package ios_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"ios"
)

// ExampleEngine is the primary API walkthrough: build an Engine for a
// device, optimize under a context with a deadline, and measure the
// result. A cancelled or timed-out context stops the search at its next
// level barrier; this one completes well within its budget. The engine
// owns its caches, so a repeat search of the same structure searches no
// block again.
func ExampleEngine() {
	eng := ios.NewEngine(ios.V100)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	g := ios.Figure2Block(1)
	res, err := eng.Optimize(ctx, g, ios.Options{})
	if err != nil {
		log.Fatal(err)
	}
	lat, err := eng.Measure(ctx, g, res.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	searched := eng.BlockCacheStats().Misses
	again, err := eng.Optimize(ctx, g, ios.Options{}) // served from the engine's block cache
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d stages, measurable latency: %v\n", res.Schedule.NumStages(), lat > 0)
	fmt.Printf("second call cached: %v\n",
		eng.BlockCacheStats().Misses == searched && again.Schedule.String() == res.Schedule.String())
	// Output:
	// 3 stages, measurable latency: true
	// second call cached: true
}

// ExampleEngine_Optimize schedules the paper's Figure 2 block and prints
// the stage structure IOS discovers (the balanced {a,d} / {b,c}
// partition).
func ExampleEngine_Optimize() {
	g := ios.Figure2Block(1)
	res, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for i, st := range res.Schedule.Stages {
		fmt.Printf("stage %d: %s\n", i+1, st)
	}
	// Output:
	// stage 1: [{a} | {d}] concurrent execution
	// stage 2: [{b} | {c}] concurrent execution
	// stage 3: [{concat}] concurrent execution
}

// ExampleNewGraph builds a two-branch network with the graph API and
// reports its operator count and width.
func ExampleNewGraph() {
	g := ios.NewGraph("two-branch")
	in := g.Input("in", ios.Shape{N: 1, C: 16, H: 14, W: 14})
	a := g.Conv("a", in, ios.ConvOpts{Out: 32, Kernel: 3})
	b := g.Conv("b", in, ios.ConvOpts{Out: 32, Kernel: 5})
	g.Concat("out", a, b)
	fmt.Printf("%d operators, width %d\n", len(g.SchedulableNodes()), g.Width())
	// Output:
	// 3 operators, width 2
}

// ExampleSequentialSchedule compares the sequential baseline against IOS.
func ExampleSequentialSchedule() {
	g := ios.Figure2Block(1)
	seq, err := ios.SequentialSchedule(g)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{})
	if err != nil {
		log.Fatal(err)
	}
	seqLat, _ := ios.NewEngine(ios.V100).Measure(context.Background(), g, seq)
	iosLat, _ := ios.NewEngine(ios.V100).Measure(context.Background(), g, res.Schedule)
	fmt.Printf("IOS is faster: %v\n", iosLat < seqLat)
	// Output:
	// IOS is faster: true
}

// ExampleExecute verifies a schedule on real tensors with the CPU
// reference executor.
func ExampleExecute() {
	g := ios.NewGraph("verify")
	in := g.Input("in", ios.Shape{N: 1, C: 4, H: 6, W: 6})
	a := g.Conv("a", in, ios.ConvOpts{Out: 4, Kernel: 1})
	b := g.Conv("b", in, ios.ConvOpts{Out: 4, Kernel: 3})
	g.Concat("out", a, b)
	res, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{})
	if err != nil {
		log.Fatal(err)
	}
	out, err := ios.Execute(res.Schedule, "out", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("output elements: %d, matches sequential execution\n", len(out))
	// Output:
	// output elements: 288, matches sequential execution
}
