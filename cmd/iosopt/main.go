// Command iosopt optimizes a computation graph with IOS and emits the
// schedule as JSON:
//
//	iosopt -graph model.json -device v100 -o schedule.json
//	iosopt -model inception -batch 32        # optimize a zoo model
//
// The graph JSON format lists nodes in topological order; see
// internal/graph/json.go and examples/custom_network for the schema.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ios/internal/baseline"
	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/plan"
	"ios/internal/profile"
)

func main() {
	var (
		graphFlag  = flag.String("graph", "", "path to a graph JSON file")
		modelFlag  = flag.String("model", "", "zoo model: "+strings.Join(models.ZooNames(), ", "))
		batchFlag  = flag.Int("batch", 1, "batch size (zoo models)")
		batchesStr = flag.String("batches", "", "comma-separated batch sizes: build a batch-specialization plan instead of a single schedule (one specialized search per batch under a shared measurement cache, plus the measured cross-batch penalty matrix); prints the matrices on stderr and emits the plan JSON on stdout or -o")
		deviceFlag = flag.String("device", "v100", "device: v100, k80, 2080ti, 1080, 980ti, a100")
		outFlag    = flag.String("o", "", "output schedule path (default stdout)")
		rFlag      = flag.Int("r", 3, "pruning: max operators per group")
		sFlag      = flag.Int("s", 8, "pruning: max groups per stage")
		strategy   = flag.String("strategy", "both", "strategy set: both, parallel, merge")
		workers    = flag.Int("workers", 0, "DP engine worker goroutines per block (0 = GOMAXPROCS); results are identical at every setting")
		progress   = flag.Bool("progress", false, "report search progress (states/transitions/measurements, current level) on stderr")
		timeout    = flag.Duration("timeout", 0, "abort the search after this long (e.g. 2m; 0 = no limit)")
		mcacheFile = flag.String("measure-cache", "", "measurement-cache file: loaded before the search (a warm restart skips already-simulated stages) and saved after it; a corrupt or missing file starts cold")
		bcacheFile = flag.String("block-cache", "", "block-schedule-cache file: loaded before the search (a warm restart skips whole block DP searches with bit-identical results) and saved after it; a corrupt or missing file starts cold")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"iosopt optimizes a computation graph with IOS and emits the schedule as JSON.\n\nUsage: iosopt -graph FILE | -model NAME [flags]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	// Ctrl-C (or SIGTERM) cancels the in-flight search cleanly: workers
	// drain, nothing is half-written, and iosopt exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	g, err := loadGraph(*graphFlag, *modelFlag, *batchFlag)
	if err != nil {
		fatal(err)
	}
	spec, ok := gpusim.SpecByName(*deviceFlag)
	if !ok {
		fatal(fmt.Errorf("unknown device %q", *deviceFlag))
	}
	opts := core.Options{Pruning: core.Pruning{R: *rFlag, S: *sFlag}, Workers: *workers}
	strat, err := core.ParseStrategySet(*strategy)
	if err != nil {
		fatal(err)
	}
	opts.Strategies = strat
	if err := opts.Validate(); err != nil {
		fatal(err)
	}
	var progressFn func(core.Progress)
	if *progress {
		progressFn = progressPrinter()
	}

	prof := profile.New(spec)
	var mcache *measure.Cache
	if *mcacheFile != "" {
		mcache = measure.NewCache()
		if n, err := mcache.LoadFile(*mcacheFile); err != nil {
			fmt.Fprintf(os.Stderr, "iosopt: -measure-cache %s: %v (starting cold)\n", *mcacheFile, err)
		} else {
			fmt.Fprintf(os.Stderr, "iosopt: loaded %d cached measurements from %s\n", n, *mcacheFile)
		}
		prof.SetMeasureCache(mcache)
	}
	var bcache *blockcache.Cache
	if *bcacheFile != "" {
		bcache = blockcache.NewCache()
		if n, err := bcache.LoadFile(*bcacheFile); err != nil {
			fmt.Fprintf(os.Stderr, "iosopt: -block-cache %s: %v (starting cold)\n", *bcacheFile, err)
		} else {
			fmt.Fprintf(os.Stderr, "iosopt: loaded %d cached block schedules from %s\n", n, *bcacheFile)
		}
		opts = opts.WithBlockCache(bcache)
	}
	// The caches are worth saving even when the search does not finish: a
	// timed-out NasNet run has already paid for its simulations and its
	// completed block searches, and the retry should resume from them
	// instead of starting cold.
	saveMeasureCache := func() {
		if mcache != nil {
			if err := mcache.SaveFile(*mcacheFile); err != nil {
				fmt.Fprintf(os.Stderr, "iosopt: save measure cache: %v\n", err)
			} else {
				st := mcache.Stats()
				fmt.Fprintf(os.Stderr, "iosopt: measure cache: %d entries saved to %s (%d simulator runs avoided)\n",
					st.Size, *mcacheFile, st.Saved())
			}
		}
		if bcache != nil {
			if err := bcache.SaveFile(*bcacheFile); err != nil {
				fmt.Fprintf(os.Stderr, "iosopt: save block cache: %v\n", err)
			} else {
				st := bcache.Stats()
				fmt.Fprintf(os.Stderr, "iosopt: block cache: %d entries saved to %s (%d block searches avoided)\n",
					st.Size, *bcacheFile, st.Saved())
			}
		}
	}

	if *batchesStr != "" {
		batches, err := parseBatches(*batchesStr)
		if err != nil {
			fatal(fmt.Errorf("-batches: %w", err))
		}
		// The sweep always shares one measurement cache across its
		// searches and cross-measurements (forks share the pointer);
		// without -measure-cache it is sweep-local instead of persisted.
		if mcache == nil {
			prof.SetMeasureCache(measure.NewCache())
		}
		p, err := plan.Build(ctx, plan.BuildConfig{
			Graph:       g,
			Batches:     batches,
			Device:      spec.Name,
			Opts:        opts,
			NewProfiler: prof.Fork, // forks share the -measure-cache table
			Progress:    progressFn,
		})
		if *progress {
			fmt.Fprintln(os.Stderr)
		}
		if err != nil {
			saveMeasureCache()
			if errors.Is(err, context.Canceled) {
				fatal(fmt.Errorf("interrupted; sweep cancelled cleanly"))
			}
			if errors.Is(err, context.DeadlineExceeded) {
				fatal(fmt.Errorf("timed out after %v; sweep cancelled cleanly", *timeout))
			}
			fatal(err)
		}
		for _, pt := range p.Points {
			fmt.Fprintf(os.Stderr, "iosopt: batch %d: %d stages, %.3f ms\n",
				pt.Batch, pt.Schedule.NumStages(), 1e3*pt.Latency)
		}
		p.Render(os.Stderr)
		saveMeasureCache()
		if *outFlag == "" {
			if err := p.Save(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		if err := p.SaveFile(*outFlag); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "iosopt: plan saved to %s\n", *outFlag)
		return
	}

	res, err := core.OptimizeWithProgress(ctx, g, prof, opts, progressFn)
	if *progress {
		fmt.Fprintln(os.Stderr) // finish the \r progress line
	}
	if err != nil {
		saveMeasureCache()
		if errors.Is(err, context.Canceled) {
			fatal(fmt.Errorf("interrupted; search cancelled cleanly"))
		}
		if errors.Is(err, context.DeadlineExceeded) {
			fatal(fmt.Errorf("timed out after %v; search cancelled cleanly", *timeout))
		}
		fatal(err)
	}
	iosLat, err := prof.MeasureSchedule(res.Schedule)
	if err != nil {
		fatal(err)
	}
	seq, err := baseline.Sequential(g)
	if err != nil {
		fatal(err)
	}
	seqLat, err := prof.MeasureSchedule(seq)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "iosopt: %s on %s: %d stages, %.3f ms (sequential %.3f ms, %.2fx); search %s, %d states, %d transitions\n",
		g.Name, spec.Name, res.Schedule.NumStages(), 1e3*iosLat, 1e3*seqLat, seqLat/iosLat,
		res.Stats.WallTime.Round(1e6), res.Stats.States, res.Stats.Transitions)
	saveMeasureCache()

	data, err := res.Schedule.MarshalJSON()
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *outFlag == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*outFlag, data, 0o644); err != nil {
		fatal(err)
	}
}

// progressPrinter returns a core progress callback that repaints one
// stderr status line, throttled to ~10 updates/second so large searches
// don't drown the terminal.
func progressPrinter() func(core.Progress) {
	var last time.Time
	return func(p core.Progress) {
		if now := time.Now(); now.Sub(last) < 100*time.Millisecond {
			return
		} else {
			last = now
		}
		fmt.Fprintf(os.Stderr, "\riosopt: block %d/%d %s level %d/%d · %d states · %d transitions · %d measurements   ",
			p.Block, p.Blocks, p.Phase, p.Level, p.Levels, p.States, p.Transitions, p.Measurements)
	}
}

func loadGraph(path, model string, batch int) (*graph.Graph, error) {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iosopt:", err)
	os.Exit(1)
}
