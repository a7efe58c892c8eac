// Command iosserve runs the IOS schedule-serving HTTP daemon: a JSON API
// that optimizes zoo models or submitted computation graphs on demand and
// caches the resulting schedules, deduplicating concurrent requests for
// the same (model, batch, device, options) so the optimizer runs once per
// configuration:
//
//	iosserve                                    # serve :8080, V100
//	iosserve -port 9090 -device 2080ti
//	iosserve -warm inception,squeezenet -warm-batch 1,16
//	iosserve -warm squeezenet -plan-batches 1,8,32 -auto-batch -slo 20ms
//	iosserve -cluster 3 -port 0 -warm nasnet    # a fleet of three
//
// With -auto-batch, POST /infer coalesces single-image requests into
// batches chosen from each plan's measured latency matrix under the
// -slo target; -plan-dir persists warmed plans across restarts.
//
// Endpoints (see internal/serve for the request/response schemas):
//
//	POST /optimize  {"model": "inception_v3", "batch": 1}
//	POST /measure   {"model": "inception_v3", "baseline": "sequential"}
//	POST /infer     {"model": "squeezenet"}          (requires -auto-batch)
//	GET  /models
//	GET  /plans
//	GET  /stats
//	GET  /healthz   (503 until warm-up is done)
//
// Try it:
//
//	curl -s localhost:8080/optimize -d '{"model": "inception_v3"}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/serve"
)

func main() {
	var cfg config
	flag.IntVar(&cfg.cacheSize, "cache", serve.DefaultCacheSize, "schedule-cache capacity in entries (0 = unbounded)")
	flag.DurationVar(&cfg.serve.Deadline, "deadline", 0, "server-side per-request deadline (e.g. 30s); requests over it are shed with 503 and their searches cancelled (0 = none)")
	flag.StringVar(&cfg.measureFile, "measure-cache", "", "measurement-cache file: loaded on start (a warm restart skips already-simulated stages) and saved on clean shutdown; a corrupt or missing file starts cold")
	flag.IntVar(&cfg.measureSize, "measure-cache-size", serve.DefaultMeasureCacheSize, "measurement-cache capacity in fingerprints (0 = unbounded); over capacity, entries are shed and re-simulated on next use")
	flag.StringVar(&cfg.blockFile, "block-cache", "", "block-schedule-cache file: loaded on start (a warm restart skips whole block DP searches with bit-identical results) and saved on clean shutdown; a corrupt or missing file starts cold")
	flag.IntVar(&cfg.blockSize, "block-cache-size", serve.DefaultBlockCacheSize, "block-schedule-cache capacity in fingerprints (0 = unbounded); over capacity, entries are shed and re-searched on next use")
	flag.StringVar(&cfg.planDir, "plan-dir", "", "directory of batch-specialization plan JSON files: every *.json in it is registered on start, and plans built this session (-plan-batches) are saved there on shutdown — a restart then serves planned batches without re-running any searches")
	flag.StringVar(&cfg.warm, "warm", "", "comma-separated zoo models to precompute on start (\"paper\" = the four benchmarks)")
	flag.DurationVar(&cfg.saveInterval, "save-interval", 0, "periodically save -measure-cache, -block-cache and -plan-dir state at this interval (e.g. 5m) in addition to the save on clean shutdown, so a crash loses at most one interval of warm state (0 = shutdown-only)")
	var (
		portFlag   = flag.Int("port", 8080, "TCP port to listen on (0 = an ephemeral port per node)")
		hostFlag   = flag.String("host", "", "host/interface to bind (default: all)")
		deviceFlag = flag.String("device", "v100", "default device: v100, k80, 2080ti, 1080, 980ti, a100")
		warmBatch  = flag.String("warm-batch", "1", "comma-separated batch sizes for -warm")
		planBatch  = flag.String("plan-batches", "", "comma-separated batch sizes: build a batch-specialization plan for each -warm model on start (specialized schedule per batch + measured cross-batch penalty matrix), superseding the plain -warm-batch warm-up for those models; /optimize then serves planned batches from the plan and routes unplanned batches to the nearest specialized schedule (penalties in GET /stats, matrices in GET /plans)")
		rFlag      = flag.Int("r", 3, "default pruning: max operators per group")
		sFlag      = flag.Int("s", 8, "default pruning: max groups per stage")
		strategy   = flag.String("strategy", "both", "default strategy set: both, parallel, merge")
		autoBatch  = flag.Bool("auto-batch", false, "enable the traffic-adaptive auto-batching front end: POST /infer coalesces single-image requests into batches chosen from each plan's measured performance model under -slo (requires a registered plan: -plan-batches or -plan-dir)")
		sloFlag    = flag.Duration("slo", 20*time.Millisecond, "per-request latency SLO for -auto-batch dispatch decisions; violations are counted in GET /stats, not masked")
		maxBatch   = flag.Int("max-batch", 0, "cap on -auto-batch dispatch sizes (0 = each plan's largest planned batch)")
		quietFlag  = flag.Bool("quiet", false, "suppress per-request logging")
		clusterN   = flag.Int("cluster", 0, "run a simulated fleet of this many nodes in one process, on ports -port..-port+n-1 (-port 0: n ephemeral ports; 0 or 1 = a single node): each node is a full server with private caches, and every node holds every block schedule (a node loads a peer's whole block cache when it starts and pushes what it searches to every peer; stage measurements stay node-local); node 0 loads -plan-dir and runs -warm/-plan-batches, and the fleet distributes the results; cache files get a per-node \".node<i>\" suffix")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"iosserve serves IOS schedules over HTTP (POST /optimize, POST /measure, GET /models, GET /stats).\n\nUsage: iosserve [flags]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	spec, ok := gpusim.SpecByName(*deviceFlag)
	if !ok {
		fatal(fmt.Errorf("unknown device %q", *deviceFlag))
	}
	strat, err := core.ParseStrategySet(*strategy)
	if err != nil {
		fatal(err)
	}
	opts := core.Options{Strategies: strat, Pruning: core.Pruning{R: *rFlag, S: *sFlag}}
	if err := opts.Validate(); err != nil {
		fatal(err)
	}
	cfg.serve.Device, cfg.serve.Options = spec, opts
	if *autoBatch {
		cfg.serve.Batching = &serve.BatchingConfig{SLO: *sloFlag, MaxBatch: *maxBatch}
	}
	if !*quietFlag {
		cfg.serve.Logf = log.New(os.Stderr, "iosserve: ", log.LstdFlags).Printf
	}
	if cfg.warm != "" {
		if cfg.warmNames, err = warmList(cfg.warm); err != nil {
			fatal(err)
		}
		if cfg.warmBatches, err = intList(*warmBatch); err != nil {
			fatal(fmt.Errorf("-warm-batch: %w", err))
		}
	}
	if *planBatch != "" {
		if cfg.warm == "" {
			fatal(fmt.Errorf("-plan-batches needs -warm to name the models to plan (\"paper\" = the four benchmarks)"))
		}
		if cfg.planBatches, err = intList(*planBatch); err != nil {
			fatal(fmt.Errorf("-plan-batches: %w", err))
		}
	}

	// Listeners first: every node's address is known, and reachable,
	// before any node is built, so a fleet advertises what it bound.
	listeners := make([]net.Listener, max(*clusterN, 1))
	for i := range listeners {
		port := *portFlag
		if port != 0 {
			port += i
		}
		if listeners[i], err = net.Listen("tcp", net.JoinHostPort(*hostFlag, strconv.Itoa(port))); err != nil {
			fatal(err)
		}
	}

	// SIGINT/SIGTERM cancel this context: in-flight warming and searches
	// stop at their next level barrier and every node drains, shuts down
	// gracefully and saves instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, listeners); err != nil {
		fatal(err)
	}
	log.Printf("iosserve: shut down cleanly")
}

// warmList expands the -warm value ("paper" = the benchmark set).
func warmList(v string) ([]string, error) {
	if v == "paper" {
		return nil, nil // serve.Warm's default: the four paper benchmarks
	}
	var names []string
	for _, n := range strings.Split(v, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-warm: empty model list")
	}
	return names, nil
}

// intList parses a comma-separated list of positive ints.
func intList(v string) ([]int, error) {
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
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iosserve:", err)
	os.Exit(1)
}
