// Command iosbench is the repository's end-to-end and per-layer benchmark: it
// drives the IOS search and serving paths from outside, through exported
// functions and loopback HTTP only, and prints the metrics BENCHMARK.json
// declares. README.md explains the workloads, the metrics and the noise
// method.
//
//	bash bench/run.sh --workload search_wide --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload search_wide --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh -compare A.jsonl B.jsonl
//	bash bench/run.sh -regen-golden bench/golden.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed for request order and arrival traces")
		seconds  = flag.Float64("seconds", 15, "how long to keep measuring rounds")
		trace    = flag.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
		traceOut = flag.String("trace-out", "", "where the traced run writes its spans as a Chrome trace (default: under the temp dir)")
		quick    = flag.Bool("quick", false, "smoke test: one round, short windows; the numbers mean nothing")
		appendTo = flag.String("append", "", "also append this run, labelled with workload and seed, to a JSON-lines file for -compare")
		compare  = flag.Bool("compare", false, "compare two JSON-lines files written with -append: iosbench -compare A B")
		dump     = flag.String("dump", "", "write every raw sample and reference tick of the run to this JSON file")
		regen    = flag.String("regen-golden", "", "rewrite the golden answers to this path and exit (see the note inside golden.json first)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: iosbench -compare A.jsonl B.jsonl")
			return 2
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosbench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	case *regen != "":
		if err := regenGolden(ctx, *regen); err != nil {
			fmt.Fprintln(os.Stderr, "iosbench:", err)
			return 1
		}
		return 0
	}

	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "iosbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, tracePath: *traceOut, dumpPath: *dump, log: os.Stdout}
	if cfg.trace && cfg.tracePath == "" {
		cfg.tracePath = filepath.Join(os.TempDir(), "iosbench-"+w.name+"-spans.json")
	}
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iosbench:", err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	printTable(os.Stdout, defs, res)
	line, err := resultLine(defs, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iosbench:", err)
		return 1
	}
	if *appendTo != "" {
		rec, err := json.Marshal(runRecord{Workload: w.name, Seed: *seed, Trace: cfg.trace, Result: line})
		if err == nil {
			err = appendLine(*appendTo, rec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosbench:", err)
			return 1
		}
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
