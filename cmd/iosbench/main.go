// Command iosbench regenerates the paper's tables and figures on the
// simulated devices. Run with no arguments to execute every experiment,
// or name specific ones:
//
//	iosbench                      # everything (slow: full networks)
//	iosbench -exp fig6,fig7       # selected experiments
//	iosbench -device 2080ti       # change the device where applicable
//	iosbench -batch 32 -exp fig6  # change the batch size
//	iosbench -quick               # reduced models (seconds, for smoke runs)
//	iosbench -list                # list experiment ids
//
// (The repository's performance benchmark is a different program: bash
// bench/run.sh, which builds bench/ into a binary of the same name.)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"ios/internal/expt"
	"ios/internal/gpusim"
)

func main() {
	// Ctrl-C stops a full-network run at the search's next level barrier.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the process: it returns the exit status (2 for a
// usage error, 1 for a failed experiment).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iosbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag    = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		deviceFlag = fs.String("device", "v100", "device: v100, k80, 2080ti, 1080, 980ti, a100")
		batchFlag  = fs.Int("batch", 1, "batch size where applicable")
		quickFlag  = fs.Bool("quick", false, "use reduced models for a fast smoke run")
		listFlag   = fs.Bool("list", false, "list experiment ids and exit")
		rFlag      = fs.Int("r", 3, "pruning: max operators per group")
		sFlag      = fs.Int("s", 8, "pruning: max groups per stage")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"iosbench regenerates the paper's tables and figures on the simulated devices (all of them by default; see -exp and -list).\n\nUsage: iosbench [flags]\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *listFlag {
		for _, name := range expt.Names() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	spec, ok := gpusim.SpecByName(*deviceFlag)
	if !ok {
		fmt.Fprintf(stderr, "iosbench: unknown device %q\n", *deviceFlag)
		return 2
	}
	cfg := expt.Config{Device: spec, Batch: *batchFlag, Quick: *quickFlag}
	cfg.Opts.Pruning.R = *rFlag
	cfg.Opts.Pruning.S = *sFlag

	ids := expt.Names()
	if *expFlag != "" {
		ids = strings.Split(*expFlag, ",")
	}
	// Resolve every id before the first run: a typo at the end of the
	// list must not cost the experiments before it.
	runners := make([]expt.Runner, len(ids))
	for i, id := range ids {
		id = strings.TrimSpace(id)
		r, ok := expt.All[id]
		if !ok {
			fmt.Fprintf(stderr, "iosbench: unknown experiment %q (try -list)\n", id)
			return 2
		}
		ids[i], runners[i] = id, r
	}
	for i, id := range ids {
		start := time.Now()
		fmt.Fprintf(stdout, "### %s ###\n", id)
		if err := runners[i](ctx, cfg, stdout); err != nil {
			fmt.Fprintf(stderr, "iosbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s took %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
