// Command iosviz renders a schedule (or an optimized zoo model) as a
// stage-by-stage text diagram with per-stage profiles, the textual
// equivalent of the paper's Figure 2/10 drawings:
//
//	iosviz -model inception -batch 1
//	iosviz -model squeezenet -schedule sched.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"ios/internal/chrometrace"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/schedule"
)

func main() {
	var (
		modelFlag  = flag.String("model", "", "zoo model: "+strings.Join(models.ZooNames(), ", "))
		graphFlag  = flag.String("graph", "", "path to a graph JSON file")
		schedFlag  = flag.String("schedule", "", "schedule JSON to visualize (default: run IOS)")
		batchFlag  = flag.Int("batch", 1, "batch size")
		deviceFlag = flag.String("device", "v100", "device for stage profiles")
		traceFlag  = flag.String("trace", "", "write a Chrome trace (chrome://tracing JSON) of the execution")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"iosviz renders a schedule (or an optimized zoo model) as a stage-by-stage text diagram with per-stage profiles.\n\nUsage: iosviz -model NAME | -graph FILE [flags]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var g *graph.Graph
	switch {
	case *graphFlag != "":
		data, err := os.ReadFile(*graphFlag)
		if err != nil {
			fatal(err)
		}
		gg, err := graph.FromJSON(data)
		if err != nil {
			fatal(err)
		}
		g = gg
	case *modelFlag != "":
		b, ok := models.ByName(*modelFlag)
		if !ok {
			fatal(fmt.Errorf("unknown model %q (known: %s)", *modelFlag, strings.Join(models.ZooNames(), ", ")))
		}
		g = b(*batchFlag)
	default:
		fatal(fmt.Errorf("pass -model NAME or -graph FILE"))
	}

	spec, ok := gpusim.SpecByName(*deviceFlag)
	if !ok {
		fatal(fmt.Errorf("unknown device %q", *deviceFlag))
	}
	prof := profile.New(spec)

	var sched *schedule.Schedule
	if *schedFlag != "" {
		data, err := os.ReadFile(*schedFlag)
		if err != nil {
			fatal(err)
		}
		sched, err = schedule.FromJSON(data, g)
		if err != nil {
			fatal(err)
		}
		if err := sched.Validate(); err != nil {
			fatal(err)
		}
	} else {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		res, err := core.OptimizeContext(ctx, g, prof, core.Options{})
		stop()
		if err != nil {
			fatal(err)
		}
		sched = res.Schedule
	}

	fmt.Printf("%s on %s — %d stages\n", g.Name, spec.Name, sched.NumStages())
	var total float64
	for i, st := range sched.Stages {
		p, err := prof.ProfileStage(st)
		if err != nil {
			fatal(err)
		}
		total += p.Latency
		fmt.Printf("stage %3d  %-20s %8.2f GFLOPs %7.2f TFLOP/s %5.1f%% util %8.3f ms\n",
			i+1, st.Strategy.String(), p.GFLOPs, p.TFLOPSs, 100*p.Utilization, 1e3*p.Latency)
		for _, grp := range st.Groups {
			fmt.Print("           | ")
			for j, n := range grp {
				if j > 0 {
					fmt.Print(" -> ")
				}
				fmt.Printf("%s(%v)", n.Name, n.Op)
			}
			fmt.Println()
		}
	}
	fmt.Printf("total %.3f ms\n", 1e3*total)

	if *traceFlag != "" {
		_, tl, err := prof.TimelineSchedule(sched)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*traceFlag)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := chrometrace.Write(f, tl, spec.Name); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace (%d kernel spans) written to %s\n", len(tl), *traceFlag)
	}

	mem := schedule.Memory(sched)
	fmt.Printf("memory: %.1f MB weights + %.1f MB peak activations (stage %d)\n",
		mem.WeightBytes/1e6, mem.PeakActivationBytes/1e6, mem.PeakStage+1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iosviz:", err)
	os.Exit(1)
}
