package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"time"

	"ios/internal/blockcache"
	"ios/internal/cluster"
	"ios/internal/measure"
	"ios/internal/serve"
)

// clusterConfig drives -cluster n: a single-binary simulated fleet of n
// nodes on consecutive ports of one process, each a full serve.Server
// with private caches behind a cluster.Node, exchanging warm block
// schedules under consistent hashing exactly as separate processes would —
// the deployment story of ISSUE's sharded serving tier, runnable on a
// laptop.
type clusterConfig struct {
	Nodes    int
	Host     string // bind interface ("" = all)
	BasePort int    // node i listens on BasePort+i

	// Serve is the per-node server template; caches are created fresh per
	// node from the Sizes below.
	Serve                             serve.Config
	CacheSize, MeasureSize, BlockSize int
	// MeasureFile and BlockFile are per-node persistence paths; node i
	// appends ".node<i>" so fleets and single nodes share flag spelling.
	MeasureFile, BlockFile string

	// Warm-up runs on node 0 only: the exchange distributes the results,
	// and every other node serves them without repeating a search. Warm
	// gates it (WarmNames nil means the paper benchmark set).
	Warm        bool
	WarmNames   []string
	WarmBatches []int
	PlanBatches []int

	SaveInterval time.Duration
}

// clusterNode is one running node of the fleet.
type clusterNode struct {
	id      string
	srv     *serve.Server
	node    *cluster.Node
	httpSrv *http.Server
	lis     net.Listener
	save    func()
}

// nodeFile suffixes a persistence path for node i ("" stays "").
func nodeFile(path string, i int) string {
	if path == "" {
		return ""
	}
	return fmt.Sprintf("%s.node%d", path, i)
}

// runCluster boots the fleet, warms node 0, distributes the warm state,
// and serves until ctx is cancelled, then drains and checkpoints every
// node. Any start-up error stops the whole fleet.
func runCluster(ctx context.Context, cc clusterConfig) error {
	members := make([]cluster.Member, cc.Nodes)
	for i := range members {
		members[i] = cluster.Member{
			ID:  fmt.Sprintf("node%d", i),
			URL: "http://127.0.0.1:" + strconv.Itoa(cc.BasePort+i),
		}
	}
	nodes := make([]*clusterNode, 0, cc.Nodes)
	defer func() {
		for _, cn := range nodes {
			cn.httpSrv.Close()
			cn.save()
		}
	}()

	for i := 0; i < cc.Nodes; i++ {
		cfg := cc.Serve
		who, mf, bf := members[i].ID+": ", nodeFile(cc.MeasureFile, i), nodeFile(cc.BlockFile, i)
		mcache := measure.NewCacheSize(cc.MeasureSize)
		loadCache(mcache, who, "measurements", mf)
		bcache := blockcache.NewCacheSize(cc.BlockSize)
		loadCache(bcache, who, "block schedules", bf)
		cfg.Cache = serve.NewScheduleCache(cc.CacheSize)
		cfg.MeasureCache = mcache
		cfg.BlockCache = bcache
		srv := serve.NewServer(cfg)
		srv.SetReady(false) // flips on once the fleet's warm-up is distributed

		node, err := cluster.New(ctx, cluster.Config{
			Self:    members[i].ID,
			Members: members,
			Server:  srv,
		})
		if err != nil {
			return err
		}
		lis, err := net.Listen("tcp", cc.Host+":"+strconv.Itoa(cc.BasePort+i))
		if err != nil {
			return fmt.Errorf("%s: %w", members[i].ID, err)
		}
		cn := &clusterNode{
			id:      members[i].ID,
			srv:     srv,
			node:    node,
			lis:     lis,
			httpSrv: newHTTPServer(ctx, lis.Addr().String(), node),
			save: func() {
				saveCache(mcache, who, "measurements", "simulator runs", mf)
				saveCache(bcache, who, "block schedules", "block searches", bf)
			},
		}
		nodes = append(nodes, cn)
	}

	// Listeners first, then warm-up: peers must be reachable while node 0
	// warms, so its background pusher can already place entries at their
	// ring owners.
	errc := make(chan error, cc.Nodes)
	for _, cn := range nodes {
		cn := cn
		go func() {
			if err := cn.httpSrv.Serve(cn.lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("%s: %w", cn.id, err)
			}
		}()
		go cn.node.Run(ctx) // background pusher
		if cc.SaveInterval > 0 {
			cp := &serve.Checkpointer{Interval: cc.SaveInterval, Save: cn.save}
			go cp.Run(ctx)
		}
	}

	warm := nodes[0]
	switch {
	case len(cc.PlanBatches) > 0:
		log.Printf("iosserve: %s: building batch plans at %v (fleet pulls them over the plan registry)", warm.id, cc.PlanBatches)
		if err := warm.srv.WarmPlans(ctx, cc.WarmNames, cc.PlanBatches); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		}
	case cc.Warm:
		log.Printf("iosserve: %s: warming the fleet (results distribute over the exchange)", warm.id)
		if err := warm.srv.Warm(ctx, cc.WarmNames, cc.WarmBatches); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		}
	}
	// Push the warm-up's entries to their ring owners now instead of
	// waiting a push interval, then let every node pull the plans.
	if _, err := warm.node.Sync(ctx); err != nil {
		log.Printf("iosserve: %s: initial sync: %v (background pusher will retry)", warm.id, err)
	}
	for _, cn := range nodes[1:] {
		if n, err := cn.node.PullPlans(ctx); err != nil {
			log.Printf("iosserve: %s: pull plans: %v", cn.id, err)
		} else if n > 0 {
			log.Printf("iosserve: %s: pulled %d plans", cn.id, n)
		}
	}
	for _, cn := range nodes {
		cn.srv.SetReady(true)
	}
	log.Printf("iosserve: cluster of %d nodes serving on ports %d-%d",
		cc.Nodes, cc.BasePort, cc.BasePort+cc.Nodes-1)

	select {
	case <-ctx.Done():
	case err := <-errc:
		return err
	}
	log.Printf("iosserve: signal received, draining cluster")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, cn := range nodes {
		if err := cn.srv.DrainBatchers(shutdownCtx); err != nil {
			log.Printf("iosserve: %s: drain batchers: %v", cn.id, err)
		}
		if err := cn.httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("iosserve: %s: shutdown: %v", cn.id, err)
		}
	}
	return nil
}
