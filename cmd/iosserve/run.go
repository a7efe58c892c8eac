package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"ios/internal/blockcache"
	"ios/internal/cluster"
	"ios/internal/measure"
	"ios/internal/plan"
	"ios/internal/serve"
	"ios/internal/sfcache"
)

// config is what the flags resolve to: everything run needs to boot,
// warm, serve and save its nodes.
type config struct {
	// serve is every node's server template; run gives each node its own
	// caches of the sizes below.
	serve                             serve.Config
	cacheSize, measureSize, blockSize int
	// measureFile and blockFile persist each node's caches ("" = none);
	// in a fleet node i appends ".node<i>". planDir is node 0's.
	measureFile, blockFile, planDir string

	// Warm-up runs on node 0 only; a fleet distributes its results. warm
	// is the -warm value ("" = no warm-up) and warmNames its models (nil =
	// the paper benchmark set); planBatches, when set, supersede warmBatches.
	warm                     string
	warmNames                []string
	warmBatches, planBatches []int

	saveInterval time.Duration
}

// node is one server of the fleet: what it serves, where it listens and
// where it saves.
type node struct {
	who      string // log prefix: "" for a fleet of one, "node<i>: " in a fleet
	srv      *serve.Server
	exchange *cluster.Node // nil for a fleet of one
	http     *http.Server
	lis      net.Listener

	measureFile, blockFile, planDir string
}

// run serves one node per listener until ctx ends. Every listener is
// bound from the start; each node serves, answering GET /healthz with 503,
// before the next is built, so the next one's snapshot pull finds it
// answering. A node is ready once node 0 has loaded -plan-dir and warmed
// and, in a fleet, the exchange has distributed the results. Whatever
// ends run — ctx, a failed or interrupted warm-up, a listener error —
// every node is drained, shut down and saved on the way out. One listener is a fleet of one: the bare
// serve.Server, without the /cluster/* endpoints or a pusher.
func run(ctx context.Context, cfg config, listeners []net.Listener) error {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	nodes := make([]*node, 0, len(listeners))
	defer func() {
		cancel()
		shutdownCtx, done := context.WithTimeout(context.Background(), 10*time.Second)
		defer done()
		for _, nd := range nodes {
			// Flush the auto-batchers FIRST: queued /infer requests dispatch
			// immediately instead of waiting out their SLO headroom, so the
			// HTTP drain below sees only briefly-running handlers.
			if err := nd.srv.DrainBatchers(shutdownCtx); err != nil {
				log.Printf("iosserve: %sdrain batchers: %v", nd.who, err)
			}
			if err := nd.http.Shutdown(shutdownCtx); err != nil {
				log.Printf("iosserve: %sshutdown: %v", nd.who, err)
			}
		}
		wg.Wait()
		for _, lis := range listeners {
			lis.Close() // those no node came to serve; the rest are closed already
		}
		// Whatever simulations, searches and plan sweeps completed —
		// interrupted warm-up included — are exactly what a warm restart
		// wants.
		for _, nd := range nodes {
			nd.save()
		}
	}()

	members := make([]cluster.Member, len(listeners))
	for i, lis := range listeners {
		members[i] = cluster.Member{ID: fmt.Sprintf("node%d", i), URL: advertise(lis.Addr())}
	}
	errc := make(chan error, len(listeners))
	spawn := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	for i, lis := range listeners {
		nd, err := newNode(ctx, cfg, members, i, lis)
		if err != nil {
			return err
		}
		nodes = append(nodes, nd)
		spawn(func() {
			if err := nd.http.Serve(nd.lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("%s%w", nd.who, err)
			}
		})
		if nd.exchange != nil {
			spawn(func() { nd.exchange.Run(ctx) }) // background pusher
		}
		if cfg.saveInterval > 0 {
			cp := &serve.Checkpointer{Interval: cfg.saveInterval, Save: nd.save}
			spawn(func() { cp.Run(ctx) })
		}
		log.Printf("iosserve: %sserving %s schedules on %s", nd.who, cfg.serve.Device.Name, nd.lis.Addr())
	}
	for _, nd := range nodes[:len(nodes)-1] { // the last was built knowing every member
		if err := nd.exchange.SetMembers(members); err != nil {
			return err
		}
	}

	// Plan warm-up supersedes plain warming: a registered plan shadows the
	// schedule cache for its models at EVERY batch size, so running both
	// would spend full searches on cache entries plan routing never reads.
	var err error
	switch seed := nodes[0]; {
	case len(cfg.planBatches) > 0:
		log.Printf("iosserve: %sbuilding batch plans at %v on %s (plan routing supersedes -warm-batch for these models)", seed.who, cfg.planBatches, cfg.serve.Device.Name)
		err = seed.srv.WarmPlans(ctx, cfg.warmNames, cfg.planBatches)
	case cfg.warm != "":
		log.Printf("iosserve: %swarming %s at batch sizes %v on %s", seed.who, cfg.warm, cfg.warmBatches, cfg.serve.Device.Name)
		err = seed.srv.Warm(ctx, cfg.warmNames, cfg.warmBatches)
	}
	if errors.Is(err, context.Canceled) {
		log.Printf("iosserve: warm-up interrupted, exiting")
		return nil
	} else if err != nil {
		return err
	}
	if len(nodes) > 1 {
		// Push the warm-up's entries to every node now instead of waiting
		// a push interval, then let every node pull the plans.
		if _, err := nodes[0].exchange.Sync(ctx); err != nil {
			log.Printf("iosserve: %sinitial sync: %v (background pusher will retry)", nodes[0].who, err)
		}
		for _, nd := range nodes[1:] {
			if _, err := nd.exchange.PullPlans(ctx); err != nil {
				log.Printf("iosserve: %spull plans: %v", nd.who, err)
			}
		}
	}
	for _, nd := range nodes {
		nd.srv.SetReady(true)
	}

	select {
	case <-ctx.Done():
		log.Printf("iosserve: signal received, draining")
		return nil
	case err := <-errc:
		return err
	}
}

// newNode builds node i of members over lis: a server with fresh caches
// loaded from its files (and, on node 0, -plan-dir's plans), not ready
// until run says so, fronted by the exchange in a fleet. The exchange
// starts knowing only members[:i+1], the nodes already serving, and
// pulls its snapshot from the first of them.
func newNode(ctx context.Context, cfg config, members []cluster.Member, i int, lis net.Listener) (*node, error) {
	nd := &node{lis: lis, measureFile: cfg.measureFile, blockFile: cfg.blockFile}
	if len(members) > 1 {
		nd.who = members[i].ID + ": "
		nd.measureFile, nd.blockFile = nodeFile(cfg.measureFile, i), nodeFile(cfg.blockFile, i)
	}
	if i == 0 {
		nd.planDir = cfg.planDir
	}
	sc := cfg.serve
	sc.Cache = serve.NewScheduleCache(cfg.cacheSize)
	sc.MeasureCache = measure.NewCacheSize(cfg.measureSize)
	loadCache(sc.MeasureCache, nd.who, "measurements", nd.measureFile)
	sc.BlockCache = blockcache.NewCacheSize(cfg.blockSize)
	loadCache(sc.BlockCache, nd.who, "block schedules", nd.blockFile)
	nd.srv = serve.NewServer(sc)
	nd.srv.SetReady(false)
	// Persisted plans register before warm-up, so a plain restart with
	// -plan-dir serves planned batches as soon as it is ready.
	if nd.planDir != "" {
		loadPlans(nd.srv, nd.planDir)
	}
	nd.http = newHTTPServer(ctx, nd.srv)
	if len(members) > 1 {
		var err error
		if nd.exchange, err = cluster.New(ctx, cluster.Config{Self: members[i].ID, Members: members[:i+1], Server: nd.srv}); err != nil {
			return nil, err
		}
		nd.http.Handler = nd.exchange
	}
	return nd, nil
}

// save writes the node's caches and plans to their files.
func (nd *node) save() {
	saveCache(nd.srv.MeasureCache(), nd.who, "measurements", "simulator runs", nd.measureFile)
	saveCache(nd.srv.BlockCache(), nd.who, "block schedules", "block searches", nd.blockFile)
	if nd.planDir != "" {
		savePlans(nd.srv, nd.planDir)
	}
}

// advertise is the base URL peers reach a listener at: the address it
// bound, with an all-interfaces host replaced by loopback, which every
// node of a one-process fleet can reach.
func advertise(addr net.Addr) string {
	if tcp, ok := addr.(*net.TCPAddr); ok && tcp.IP.IsUnspecified() {
		return "http://" + net.JoinHostPort("127.0.0.1", strconv.Itoa(tcp.Port))
	}
	return "http://" + addr.String()
}

// nodeFile suffixes a persistence path for fleet node i ("" stays "").
func nodeFile(path string, i int) string {
	if path == "" {
		return ""
	}
	return fmt.Sprintf("%s.node%d", path, i)
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

// newHTTPServer builds the http.Server every node listens with. Request
// contexts descend from ctx, so Ctrl-C also cancels every in-flight
// search.
func newHTTPServer(ctx context.Context, h http.Handler) *http.Server {
	return &http.Server{
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
		if err == nil {
			err = srv.RegisterPlan(p)
		}
		if err != nil {
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

// unsafeFileChars matches each character a plan file name does not keep.
var unsafeFileChars = regexp.MustCompile(`[^a-zA-Z0-9._=-]`)

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
		name := unsafeFileChars.ReplaceAllString(p.Model+"_"+p.Device+"_"+p.Opts, "-") + ".json"
		path := filepath.Join(dir, name)
		if err := p.SaveFile(path); err != nil {
			log.Printf("iosserve: save plan %s: %v", path, err)
			continue
		}
		log.Printf("iosserve: saved plan %s/%s/%s to %s", p.Model, p.Device, p.Opts, path)
	}
}
