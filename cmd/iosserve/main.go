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
//
// Try it:
//
//	curl -s localhost:8080/optimize -d '{"model": "inception_v3"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/measure"
	"ios/internal/plan"
	"ios/internal/serve"
	"ios/internal/sfcache"
)

func main() {
	var (
		portFlag   = flag.Int("port", 8080, "TCP port to listen on")
		hostFlag   = flag.String("host", "", "host/interface to bind (default: all)")
		deviceFlag = flag.String("device", "v100", "default device: v100, k80, 2080ti, 1080, 980ti, a100")
		cacheFlag  = flag.Int("cache", serve.DefaultCacheSize, "schedule-cache capacity in entries (0 = unbounded)")
		warmFlag   = flag.String("warm", "", "comma-separated zoo models to precompute on start (\"paper\" = the four benchmarks)")
		warmBatch  = flag.String("warm-batch", "1", "comma-separated batch sizes for -warm")
		planBatch  = flag.String("plan-batches", "", "comma-separated batch sizes: build a batch-specialization plan for each -warm model on start (specialized schedule per batch + measured cross-batch penalty matrix), superseding the plain -warm-batch warm-up for those models; /optimize then serves planned batches from the plan and routes unplanned batches to the nearest specialized schedule (penalties in GET /stats, matrices in GET /plans)")
		rFlag      = flag.Int("r", 3, "default pruning: max operators per group")
		sFlag      = flag.Int("s", 8, "default pruning: max groups per stage")
		strategy   = flag.String("strategy", "both", "default strategy set: both, parallel, merge")
		workers    = flag.Int("workers", 0, "DP engine worker goroutines per block on cache misses (0 = GOMAXPROCS); schedules are identical at every setting")
		deadline   = flag.Duration("deadline", 0, "server-side per-request deadline (e.g. 30s); requests over it are shed with 503 and their searches cancelled (0 = none)")
		mcacheFile = flag.String("measure-cache", "", "measurement-cache file: loaded on start (a warm restart skips already-simulated stages) and saved on clean shutdown; a corrupt or missing file starts cold")
		mcacheSize = flag.Int("measure-cache-size", serve.DefaultMeasureCacheSize, "measurement-cache capacity in fingerprints (0 = unbounded); over capacity, entries are shed and re-simulated on next use")
		bcacheFile = flag.String("block-cache", "", "block-schedule-cache file: loaded on start (a warm restart skips whole block DP searches with bit-identical results) and saved on clean shutdown; a corrupt or missing file starts cold")
		bcacheSize = flag.Int("block-cache-size", serve.DefaultBlockCacheSize, "block-schedule-cache capacity in fingerprints (0 = unbounded); over capacity, entries are shed and re-searched on next use")
		autoBatch  = flag.Bool("auto-batch", false, "enable the traffic-adaptive auto-batching front end: POST /infer coalesces single-image requests into batches chosen from each plan's measured performance model under -slo (requires a registered plan: -plan-batches or -plan-dir)")
		sloFlag    = flag.Duration("slo", 20*time.Millisecond, "per-request latency SLO for -auto-batch dispatch decisions; violations are counted in GET /stats, not masked")
		maxBatch   = flag.Int("max-batch", 0, "cap on -auto-batch dispatch sizes (0 = each plan's largest planned batch)")
		planDir    = flag.String("plan-dir", "", "directory of batch-specialization plan JSON files: every *.json in it is registered on start, and plans built this session (-plan-batches) are saved there on shutdown — a restart then serves planned batches without re-running any searches")
		quietFlag  = flag.Bool("quiet", false, "suppress per-request logging")
		clusterN   = flag.Int("cluster", 0, "run a simulated fleet of this many nodes in one process, on ports -port..-port+n-1: each node is a full server with private caches behind a consistent-hash warm-cache exchange (block schedules shard by structural fingerprint; a node missing one fetches the canonical entry from its ring owner and rebinds it instead of re-searching; stage measurements stay node-local); node 0 runs -warm/-plan-batches and the fleet distributes the results; cache files get a per-node \".node<i>\" suffix")
		saveEvery  = flag.Duration("save-interval", 0, "periodically save -measure-cache, -block-cache and -plan-dir state at this interval (e.g. 5m) in addition to the save on clean shutdown, so a crash loses at most one interval of warm state (0 = shutdown-only)")
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
	opts := core.Options{Strategies: strat, Pruning: core.Pruning{R: *rFlag, S: *sFlag}, Workers: *workers}
	if err := opts.Validate(); err != nil {
		fatal(err)
	}

	// -cluster runs the whole fleet and exits; the rest of main is the
	// single-node path.
	if *clusterN > 1 {
		cc := clusterConfig{
			Nodes:        *clusterN,
			Host:         *hostFlag,
			BasePort:     *portFlag,
			CacheSize:    *cacheFlag,
			MeasureSize:  *mcacheSize,
			BlockSize:    *bcacheSize,
			MeasureFile:  *mcacheFile,
			BlockFile:    *bcacheFile,
			SaveInterval: *saveEvery,
		}
		cc.Serve = serve.Config{Device: spec, Options: opts, Deadline: *deadline}
		if *autoBatch {
			cc.Serve.Batching = &serve.BatchingConfig{SLO: *sloFlag, MaxBatch: *maxBatch}
		}
		if !*quietFlag {
			cc.Serve.Logf = log.New(os.Stderr, "iosserve: ", log.LstdFlags).Printf
		}
		if *planDir != "" {
			fatal(fmt.Errorf("-plan-dir is not supported with -cluster (nodes pull plans over the plan registry instead)"))
		}
		if *warmFlag != "" {
			names, err := warmList(*warmFlag)
			if err != nil {
				fatal(err)
			}
			cc.Warm = true
			cc.WarmNames = names
			if cc.WarmBatches, err = intList(*warmBatch); err != nil {
				fatal(fmt.Errorf("-warm-batch: %w", err))
			}
		}
		if *planBatch != "" {
			if *warmFlag == "" {
				fatal(fmt.Errorf("-plan-batches needs -warm to name the models to plan (\"paper\" = the four benchmarks)"))
			}
			var err error
			if cc.PlanBatches, err = intList(*planBatch); err != nil {
				fatal(fmt.Errorf("-plan-batches: %w", err))
			}
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runCluster(ctx, cc); err != nil {
			fatal(err)
		}
		log.Printf("iosserve: cluster shut down cleanly")
		return
	}
	// The measurement cache persists simulator runs across restarts and
	// the block cache whole-block DP searches: load both before warming (so
	// -warm on warm files costs near nothing) and save them on every exit.
	mcache := measure.NewCacheSize(*mcacheSize)
	loadCache(mcache, "", "measurements", *mcacheFile)
	bcache := blockcache.NewCacheSize(*bcacheSize)
	loadCache(bcache, "", "block schedules", *bcacheFile)
	cfg := serve.Config{
		Device:       spec,
		Options:      opts,
		Cache:        serve.NewScheduleCache(*cacheFlag),
		MeasureCache: mcache,
		BlockCache:   bcache,
		Deadline:     *deadline,
	}
	if *autoBatch {
		cfg.Batching = &serve.BatchingConfig{SLO: *sloFlag, MaxBatch: *maxBatch}
	}
	if !*quietFlag {
		cfg.Logf = log.New(os.Stderr, "iosserve: ", log.LstdFlags).Printf
	}
	srv := serve.NewServer(cfg)
	// Persisted plans register before warm-up, so -plan-batches only
	// spends searches on models that are not already covered... and a
	// plain restart with -plan-dir serves planned batches immediately.
	if *planDir != "" {
		loadPlans(srv, *planDir)
	}
	// saveState runs on every exit path — including an interrupted or
	// failed warm-up and a listener that never came up: whatever
	// simulations and plan sweeps completed are exactly what a warm
	// restart wants.
	saveState := func() {
		saveCache(mcache, "", "measurements", "simulator runs", *mcacheFile)
		saveCache(bcache, "", "block schedules", "block searches", *bcacheFile)
		if *planDir != "" {
			savePlans(srv, *planDir)
		}
	}
	// fail is fatal() for errors past cache creation: save first.
	fail := func(err error) {
		saveState()
		fatal(err)
	}

	// SIGINT/SIGTERM cancel this context: in-flight warming and searches
	// stop at their next level barrier and the HTTP server shuts down
	// gracefully instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// /healthz reports "starting" until warm-up completes, so load
	// balancers (and the cluster harness) only route to warmed nodes.
	srv.SetReady(false)
	// Plan warm-up supersedes plain warming: a registered plan shadows the
	// schedule cache for its models at EVERY batch size, so running both
	// would spend full searches on cache entries plan routing never reads.
	switch {
	case *planBatch != "":
		if *warmFlag == "" {
			fatal(fmt.Errorf("-plan-batches needs -warm to name the models to plan (\"paper\" = the four benchmarks)"))
		}
		names, err := warmList(*warmFlag)
		if err != nil {
			fatal(err)
		}
		batches, err := intList(*planBatch)
		if err != nil {
			fatal(fmt.Errorf("-plan-batches: %w", err))
		}
		log.Printf("iosserve: building batch plans at %v on %s (plan routing supersedes -warm-batch for these models)", batches, spec.Name)
		if err := srv.WarmPlans(ctx, names, batches); err != nil {
			if errors.Is(err, context.Canceled) {
				log.Printf("iosserve: plan warm-up interrupted, exiting")
				saveState()
				return
			}
			fail(err)
		}
	case *warmFlag != "":
		names, err := warmList(*warmFlag)
		if err != nil {
			fatal(err)
		}
		batches, err := intList(*warmBatch)
		if err != nil {
			fatal(fmt.Errorf("-warm-batch: %w", err))
		}
		desc := fmt.Sprintf("%d model(s)", len(names))
		if names == nil {
			desc = "the paper benchmarks"
		}
		log.Printf("iosserve: warming %s at batch sizes %v on %s", desc, batches, spec.Name)
		if err := srv.Warm(ctx, names, batches); err != nil {
			if errors.Is(err, context.Canceled) {
				log.Printf("iosserve: warming interrupted, exiting")
				saveState()
				return
			}
			fail(err)
		}
	}
	srv.SetReady(true)

	// Periodic checkpointing: the same saveState the shutdown path runs,
	// on a ticker, so a crash loses at most -save-interval of warm state.
	if *saveEvery > 0 {
		cp := &serve.Checkpointer{Interval: *saveEvery, Save: saveState}
		go cp.Run(ctx)
	}

	addr := *hostFlag + ":" + strconv.Itoa(*portFlag)
	httpSrv := newHTTPServer(ctx, addr, srv)
	// Shutdown makes ListenAndServe return immediately, so main must wait
	// for the drain itself (drained channel) or in-flight responses would
	// be killed when the process exits.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("iosserve: signal received, draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Flush the auto-batchers FIRST: queued /infer requests dispatch
		// immediately instead of waiting out their SLO headroom, so the
		// HTTP drain below sees only briefly-running handlers.
		if err := srv.DrainBatchers(shutdownCtx); err != nil {
			log.Printf("iosserve: drain batchers: %v", err)
		}
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("iosserve: shutdown: %v", err)
		}
	}()
	log.Printf("iosserve: serving %s schedules on %s", spec.Name, addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	stop() // unblock the drain goroutine if the listener failed on its own
	<-drained
	saveState()
	log.Printf("iosserve: shut down cleanly")
}

// readHeaderTimeout, readTimeout and idleTimeout bound what a connection
// may cost before, during and between requests: a client or peer that
// stalls mid-header or mid-body, or parks a keep-alive connection, is
// dropped instead of holding a goroutine, a descriptor and half a body
// for the life of the process. (A search runs after the body is read.)
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the http.Server the single node and every cluster
// node listen with. Request contexts descend from ctx (the signal
// context), so Ctrl-C also cancels every in-flight search.
func newHTTPServer(ctx context.Context, addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
}

// loadCache fills a cache from its file ("" = none), starting it cold on
// any failure; who prefixes the log lines ("node1: " in a fleet).
func loadCache(c interface{ LoadFile(string) (int, error) }, who, what, path string) {
	if path == "" {
		return
	}
	if n, err := c.LoadFile(path); err != nil {
		log.Printf("iosserve: %s%s file %s: %v (starting cold)", who, what, path, err)
	} else {
		log.Printf("iosserve: %sloaded %d cached %s from %s", who, n, what, path)
	}
}

// saveCache writes a cache to its file ("" = none); avoided names what a hit saved.
func saveCache(c interface {
	SaveFile(string) error
	Stats() sfcache.Stats
}, who, what, avoided, path string) {
	if path == "" {
		return
	}
	if err := c.SaveFile(path); err != nil {
		log.Printf("iosserve: %ssave %s: %v", who, what, err)
		return
	}
	st := c.Stats()
	log.Printf("iosserve: %ssaved %d %s to %s (%d %s avoided this session)", who, st.Size, what, path, st.Saved(), avoided)
}

// loadPlans registers every *.json plan file in dir. Unreadable or
// invalid files are logged and skipped — a bad plan file must not keep
// the daemon from starting.
func loadPlans(srv *serve.Server, dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Printf("iosserve: -plan-dir %s: %v (starting without persisted plans)", dir, err)
		return
	}
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		p, err := plan.LoadFile(path)
		if err != nil {
			log.Printf("iosserve: plan %s: %v (skipped)", path, err)
			continue
		}
		if err := srv.RegisterPlan(p); err != nil {
			log.Printf("iosserve: plan %s: %v (skipped)", path, err)
			continue
		}
		log.Printf("iosserve: registered plan %s/%s/%s batches=%v from %s", p.Model, p.Device, p.Opts, p.Batches(), e.Name())
		loaded++
	}
	if loaded == 0 {
		log.Printf("iosserve: -plan-dir %s: no plans loaded", dir)
	}
}

// savePlans writes every registered plan to dir (created if missing) as
// <model>_<device>_<opts>.json, with non-filename characters mapped to
// '-'. Plans loaded from the same directory simply overwrite their own
// files with identical content.
func savePlans(srv *serve.Server, dir string) {
	plans := srv.Plans()
	if len(plans) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("iosserve: save plans: %v", err)
		return
	}
	for _, p := range plans {
		name := sanitizeFile(p.Model+"_"+p.Device+"_"+p.Opts) + ".json"
		path := filepath.Join(dir, name)
		if err := p.SaveFile(path); err != nil {
			log.Printf("iosserve: save plan %s: %v", path, err)
			continue
		}
		log.Printf("iosserve: saved plan %s/%s/%s to %s", p.Model, p.Device, p.Opts, path)
	}
}

// sanitizeFile maps a plan identity to a safe filename component.
func sanitizeFile(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.', r == '=':
			return r
		default:
			return '-'
		}
	}, s)
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
