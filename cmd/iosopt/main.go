// Command iosopt optimizes a computation graph with IOS and emits the
// schedule as JSON:
//
//	iosopt -graph model.json -device v100 -o schedule.json
//	iosopt -model inception -batch 32        # optimize a zoo model
//
// The graph JSON format lists nodes in topological order; see
// internal/graph/json.go and examples/custom_network for the schema.
// Every search, sweep and measurement runs through an ios.Engine.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ios"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/models"
)

func main() {
	// Ctrl-C (or SIGTERM) cancels the in-flight search cleanly: workers
	// drain, nothing is half-written, and iosopt exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the process: it returns the exit status (2 for a
// usage error, 1 for a failed search).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iosopt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphFlag  = fs.String("graph", "", "path to a graph JSON file")
		modelFlag  = fs.String("model", "", "zoo model: "+strings.Join(models.ZooNames(), ", "))
		batchFlag  = fs.Int("batch", 1, "batch size (zoo models)")
		batchesStr = fs.String("batches", "", "comma-separated batch sizes: build a batch-specialization plan instead of a single schedule (one specialized search per batch on the engine's caches, plus the measured cross-batch penalty matrix); prints the matrices on stderr and emits the plan JSON on stdout or -o")
		deviceFlag = fs.String("device", "v100", "device: v100, k80, 2080ti, 1080, 980ti, a100")
		outFlag    = fs.String("o", "", "output schedule path (default stdout)")
		rFlag      = fs.Int("r", 3, "pruning: max operators per group")
		sFlag      = fs.Int("s", 8, "pruning: max groups per stage")
		strategy   = fs.String("strategy", "both", "strategy set: both, parallel, merge")
		progress   = fs.Bool("progress", false, "report search progress (states/transitions/measurements, current level) on stderr")
		timeout    = fs.Duration("timeout", 0, "abort the search after this long (e.g. 2m; 0 = no limit); a retry resumes from the completed blocks saved to -block-cache and re-searches the one that was in flight (on NasNet-A at most about 2s on 2 vCPUs)")
		bcacheFile = fs.String("block-cache", "", "block-schedule-cache file: loaded before the search (a warm restart skips whole block DP searches with bit-identical results) and saved as soon as the search returns, finished or not; a corrupt or missing file starts cold")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"iosopt optimizes a computation graph with IOS and emits the schedule as JSON.\n\nUsage: iosopt -graph FILE | -model NAME [flags]\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "iosopt:", err)
		return code
	}

	g, err := loadGraph(*graphFlag, *modelFlag, *batchFlag)
	if err != nil {
		return fail(2, err)
	}
	spec, ok := gpusim.SpecByName(*deviceFlag)
	if !ok {
		return fail(2, fmt.Errorf("unknown device %q", *deviceFlag))
	}
	strat, err := ios.ParseStrategySet(*strategy)
	if err != nil {
		return fail(2, err)
	}
	opts := ios.Options{Strategies: strat, Pruning: ios.Pruning{R: *rFlag, S: *sFlag}}
	if err := opts.Validate(); err != nil {
		return fail(2, err)
	}
	var batches []int
	if *batchesStr != "" {
		if batches, err = parseBatches(*batchesStr); err != nil {
			return fail(2, fmt.Errorf("-batches: %w", err))
		}
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Without a cache file the engine searches on a private block cache.
	var bcache *ios.BlockCache
	if *bcacheFile != "" {
		bcache = ios.NewBlockCache()
		if n, err := bcache.LoadFile(*bcacheFile); err != nil {
			fmt.Fprintf(stderr, "iosopt: -block-cache %s: %v (starting cold)\n", *bcacheFile, err)
		} else {
			fmt.Fprintf(stderr, "iosopt: loaded %d cached block schedules from %s\n", n, *bcacheFile)
		}
	}
	engOpts := []ios.EngineOption{ios.WithBlockCache(bcache)}
	if *progress {
		engOpts = append(engOpts, ios.WithProgress(progressPrinter(stderr)))
	}
	eng := ios.NewEngine(spec, engOpts...)

	var (
		p    *ios.BatchPlan
		res  *ios.Result
		what = "search"
	)
	if batches != nil {
		what = "sweep"
		p, err = eng.OptimizeBatches(ctx, g, batches, opts)
	} else {
		res, err = eng.Optimize(ctx, g, opts)
	}
	if *progress {
		fmt.Fprintln(stderr) // finish the \r progress line
	}
	// Nothing after the search changes the block cache, so it is saved
	// now, finished or not: a timed-out NasNet run has already paid for
	// its completed block searches, and the retry resumes from them.
	if bcache != nil {
		if err := bcache.SaveFile(*bcacheFile); err != nil {
			fmt.Fprintf(stderr, "iosopt: save block cache: %v\n", err)
		} else {
			st := bcache.Stats()
			fmt.Fprintf(stderr, "iosopt: block cache: %d entries saved to %s (%d block searches avoided)\n",
				st.Size, *bcacheFile, st.Saved())
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			err = fmt.Errorf("interrupted; %s cancelled cleanly", what)
		case errors.Is(err, context.DeadlineExceeded):
			err = fmt.Errorf("timed out after %v; %s cancelled cleanly", *timeout, what)
		}
		return fail(1, err)
	}

	if p != nil {
		for _, pt := range p.Points {
			fmt.Fprintf(stderr, "iosopt: batch %d: %d stages, %.3f ms\n",
				pt.Batch, pt.Schedule.NumStages(), 1e3*pt.Latency)
		}
		p.Render(stderr)
		if *outFlag == "" {
			if err := p.Save(stdout); err != nil {
				return fail(1, err)
			}
			return 0
		}
		if err := p.SaveFile(*outFlag); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "iosopt: plan saved to %s\n", *outFlag)
		return 0
	}

	iosLat, err := eng.Measure(ctx, g, res.Schedule)
	if err != nil {
		return fail(1, err)
	}
	seq, err := ios.SequentialSchedule(g)
	if err != nil {
		return fail(1, err)
	}
	seqLat, err := eng.Measure(ctx, g, seq)
	if err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stderr, "iosopt: %s on %s: %d stages, %.3f ms (sequential %.3f ms, %.2fx); search %s, %d states, %d transitions\n",
		g.Name, spec.Name, res.Schedule.NumStages(), 1e3*iosLat, 1e3*seqLat, seqLat/iosLat,
		res.Stats.WallTime.Round(1e6), res.Stats.States, res.Stats.Transitions)

	data, err := json.MarshalIndent(res.Schedule, "", "  ")
	if err != nil {
		return fail(1, err)
	}
	data = append(data, '\n')
	if *outFlag == "" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(*outFlag, data, 0o644)
	}
	if err != nil {
		return fail(1, err)
	}
	return 0
}

// progressPrinter returns a progress callback that repaints one stderr
// status line, throttled to ~10 updates/second so large searches don't
// drown the terminal.
func progressPrinter(stderr io.Writer) func(ios.Progress) {
	var last time.Time
	return func(p ios.Progress) {
		if now := time.Now(); now.Sub(last) < 100*time.Millisecond {
			return
		} else {
			last = now
		}
		fmt.Fprintf(stderr, "\riosopt: block %d/%d %s level %d/%d · %d states · %d transitions · %d measurements   ",
			p.Block, p.Blocks, p.Phase, p.Level, p.Levels, p.States, p.Transitions, p.Measurements)
	}
}

func loadGraph(path, model string, batch int) (*ios.Graph, error) {
	switch {
	case path != "" && model != "":
		return nil, fmt.Errorf("pass either -graph or -model, not both")
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return graph.FromJSON(data)
	case model != "":
		b, ok := models.ByName(model)
		if !ok {
			return nil, fmt.Errorf("unknown model %q (known: %s)", model, strings.Join(models.ZooNames(), ", "))
		}
		return b(batch), nil
	default:
		return nil, fmt.Errorf("pass -graph FILE or -model NAME")
	}
}

// parseBatches parses the -batches sweep list.
func parseBatches(v string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad batch size %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty batch list")
	}
	return out, nil
}
