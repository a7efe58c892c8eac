package ios_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (`iosbench -list` is the index). Each benchmark
// regenerates its experiment end to end — model construction, baseline
// scheduling, the IOS dynamic program, and simulated measurement — so
// `go test -bench=.` reproduces every reported result. The rendered rows/series are produced
// by cmd/iosbench; here output goes to io.Discard and the benchmark value
// is the wall time of regenerating the experiment.
//
// Benchmarks for the two search-heavy networks (RandWire, NasNet) run the
// full configuration; expect a few tens of seconds each on one core.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"ios"
	"ios/internal/core"
	"ios/internal/expt"
	"ios/internal/gpusim"
	"ios/internal/profile"
)

// runExperiment benchmarks one experiment id under a config.
func runExperiment(b *testing.B, id string, cfg expt.Config) {
	b.Helper()
	run, ok := expt.All[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := run(context.Background(), cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func fullCfg() expt.Config  { return expt.Config{Device: gpusim.TeslaV100, Batch: 1} }
func quickCfg() expt.Config { return expt.Config{Device: gpusim.TeslaV100, Batch: 1, Quick: true} }

// BenchmarkFig1Trend regenerates Figure 1 (FLOPs-per-conv vs peak trend).
func BenchmarkFig1Trend(b *testing.B) { runExperiment(b, "fig1", fullCfg()) }

// BenchmarkFig2Schedules regenerates Figure 2 (the running example's
// sequential/greedy/IOS stage profiles).
func BenchmarkFig2Schedules(b *testing.B) { runExperiment(b, "fig2", fullCfg()) }

// BenchmarkTable1Complexity regenerates Table 1 (n, d, transition bound,
// exact #(S,S'), #schedules for each network's hardest block).
func BenchmarkTable1Complexity(b *testing.B) { runExperiment(b, "table1", fullCfg()) }

// BenchmarkTable2Inventory regenerates Table 2 (benchmark inventory).
func BenchmarkTable2Inventory(b *testing.B) { runExperiment(b, "table2", fullCfg()) }

// BenchmarkFig6Schedules regenerates Figure 6 (five schedules across the
// four CNNs on the V100) with the full networks.
func BenchmarkFig6Schedules(b *testing.B) { runExperiment(b, "fig6", fullCfg()) }

// BenchmarkFig6SchedulesQuick is the reduced-model variant for fast runs.
func BenchmarkFig6SchedulesQuick(b *testing.B) { runExperiment(b, "fig6", quickCfg()) }

// BenchmarkFig7Frameworks regenerates Figure 7 (cuDNN-based frameworks vs
// IOS on the V100).
func BenchmarkFig7Frameworks(b *testing.B) { runExperiment(b, "fig7", fullCfg()) }

// BenchmarkFig8ActiveWarps regenerates Figure 8 (active-warp traces).
func BenchmarkFig8ActiveWarps(b *testing.B) { runExperiment(b, "fig8", fullCfg()) }

// BenchmarkFig9Pruning regenerates Figure 9 (latency vs optimization cost
// across pruning settings r∈{1,2,3}, s∈{3,8}).
func BenchmarkFig9Pruning(b *testing.B) { runExperiment(b, "fig9", fullCfg()) }

// BenchmarkTable3Specialization regenerates Table 3 (batch-size and device
// specialization matrices).
func BenchmarkTable3Specialization(b *testing.B) { runExperiment(b, "table3", fullCfg()) }

// BenchmarkFig10LastBlock regenerates Figure 10 (batch-1 vs batch-32
// schedules of Inception V3's last block).
func BenchmarkFig10LastBlock(b *testing.B) { runExperiment(b, "fig10", fullCfg()) }

// BenchmarkFig11BatchSize regenerates Figure 11 (throughput across batch
// sizes 1..128 on Inception V3).
func BenchmarkFig11BatchSize(b *testing.B) { runExperiment(b, "fig11", fullCfg()) }

// BenchmarkFig12IntraInter regenerates Figure 12 (TVM-AutoTune vs IOS and
// optimization cost).
func BenchmarkFig12IntraInter(b *testing.B) { runExperiment(b, "fig12", fullCfg()) }

// BenchmarkFig14Schedules2080Ti regenerates Figure 14 (Figure 6 on the
// RTX 2080Ti).
func BenchmarkFig14Schedules2080Ti(b *testing.B) { runExperiment(b, "fig14", fullCfg()) }

// BenchmarkFig15Frameworks2080Ti regenerates Figure 15 (Figure 7 on the
// RTX 2080Ti).
func BenchmarkFig15Frameworks2080Ti(b *testing.B) { runExperiment(b, "fig15", fullCfg()) }

// BenchmarkFig16BlockWise regenerates Figure 16 (per-block Inception V3
// speedups).
func BenchmarkFig16BlockWise(b *testing.B) { runExperiment(b, "fig16", fullCfg()) }

// BenchmarkResNetRemark regenerates the Section 5 ResNet remark (2-5%
// speedup only).
func BenchmarkResNetRemark(b *testing.B) { runExperiment(b, "resnet", fullCfg()) }

// Extension and ablation benches (design-choice studies and the paper's
// Section 7.4 future work).

// BenchmarkExtCombo regenerates the IOS+AutoTune combination study.
func BenchmarkExtCombo(b *testing.B) { runExperiment(b, "combo", quickCfg()) }

// BenchmarkExtMemory regenerates the activation-memory-by-batch study.
func BenchmarkExtMemory(b *testing.B) { runExperiment(b, "memory", fullCfg()) }

// BenchmarkExtLightweight regenerates the mobile-CNN study.
func BenchmarkExtLightweight(b *testing.B) { runExperiment(b, "lightweight", fullCfg()) }

// BenchmarkAblationContention sweeps the contention coefficient.
func BenchmarkAblationContention(b *testing.B) {
	runExperiment(b, "ablation-contention", fullCfg())
}

// BenchmarkAblationDevices sweeps the device generation.
func BenchmarkAblationDevices(b *testing.B) { runExperiment(b, "ablation-devices", fullCfg()) }

// BenchmarkAblationSerialTail sweeps pruning with the serial-tail rule.
func BenchmarkAblationSerialTail(b *testing.B) { runExperiment(b, "ablation-serial", fullCfg()) }

// Component micro-benchmarks: the costs that determine the scheduler's
// own performance (search time per network, stage measurement, width).

// BenchmarkOptimizeInceptionV3 measures the full IOS search on Inception
// V3 at batch one (the paper reports < 1 minute on real hardware; the
// simulator substrate searches in tens of milliseconds).
func BenchmarkOptimizeInceptionV3(b *testing.B) {
	g := ios.InceptionV3(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeSqueezeNet measures the IOS search on SqueezeNet.
func BenchmarkOptimizeSqueezeNet(b *testing.B) {
	g := ios.SqueezeNet(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeRandWire measures the IOS search on RandWire (the
// widest benchmark, d = 8; the paper reports < 90 minutes on hardware).
func BenchmarkOptimizeRandWire(b *testing.B) {
	g := ios.RandWire(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeNasNet measures the IOS search on NasNet-A.
func BenchmarkOptimizeNasNet(b *testing.B) {
	g := ios.NasNetA(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeInceptionV3Warm measures a full IOS search with the
// structural measurement cache already warm (the serving tier's repeated
// -model case, and the iosopt/iosserve warm-restart case): every
// simulator invocation is a cache hit, so this isolates the engine's
// non-measurement cost.
func BenchmarkOptimizeInceptionV3Warm(b *testing.B) {
	g := ios.InceptionV3(1)
	cache := ios.NewMeasureCache()
	eng := ios.NewEngine(ios.V100, ios.WithMeasureCache(cache))
	if _, err := eng.Optimize(context.Background(), g, ios.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Optimize(context.Background(), g, ios.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeInceptionV3Cold measures a full IOS search that fills
// a fresh measurement cache (the first-request cost when the cache is
// enabled): intra-network structural dedup applies, cross-call reuse does
// not.
func BenchmarkOptimizeInceptionV3Cold(b *testing.B) {
	g := ios.InceptionV3(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := ios.NewEngine(ios.V100, ios.WithMeasureCache(ios.NewMeasureCache()))
		if _, err := eng.Optimize(context.Background(), g, ios.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureSchedule measures the simulator cost of one end-to-end
// schedule measurement (the unit of the paper's profiling step).
func BenchmarkMeasureSchedule(b *testing.B) {
	g := ios.InceptionV3(1)
	s, err := ios.SequentialSchedule(g)
	if err != nil {
		b.Fatal(err)
	}
	prof := ios.NewProfiler(ios.V100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prof.MeasureSchedule(s); err != nil {
			b.Fatal(err)
		}
	}
}

// Serving-layer benchmarks: the schedule cache on its hit path, its miss
// path (a full IOS search of the requested model), and the end-to-end
// HTTP /optimize endpoint under concurrent load — the request pattern a
// deployed iosserve sees once schedules are warm.

// BenchmarkScheduleCacheHit measures the cost of serving one schedule from
// a warm cache (the steady-state cost per request of the serving tier).
func BenchmarkScheduleCacheHit(b *testing.B) {
	cache := ios.NewScheduleCache(16)
	key := ios.CacheKey{Model: "inception", Batch: 1, Device: "Tesla V100", Opts: ios.Options{}.Fingerprint()}
	compute := func(context.Context) (*ios.CacheEntry, error) {
		g := ios.InceptionV3(1)
		res, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{})
		if err != nil {
			return nil, err
		}
		return &ios.CacheEntry{Graph: g, Schedule: res.Schedule, Stats: res.Stats}, nil
	}
	if _, _, err := cache.GetOrCompute(context.Background(), key, compute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cached, err := cache.GetOrCompute(context.Background(), key, compute); err != nil || !cached {
			b.Fatalf("cached=%v err=%v", cached, err)
		}
	}
}

// BenchmarkScheduleCacheMiss measures the cold-path cost: every iteration
// purges the cache, so each request pays a full Figure-2-block search.
func BenchmarkScheduleCacheMiss(b *testing.B) {
	cache := ios.NewScheduleCache(16)
	key := ios.CacheKey{Model: "fig2", Batch: 1, Device: "Tesla V100", Opts: ios.Options{}.Fingerprint()}
	compute := func(context.Context) (*ios.CacheEntry, error) {
		g := ios.Figure2Block(1)
		res, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, ios.Options{})
		if err != nil {
			return nil, err
		}
		return &ios.CacheEntry{Graph: g, Schedule: res.Schedule, Stats: res.Stats}, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Purge()
		if _, cached, err := cache.GetOrCompute(context.Background(), key, compute); err != nil || cached {
			b.Fatalf("cached=%v err=%v", cached, err)
		}
	}
}

// BenchmarkServeOptimizeWarm measures the HTTP /optimize endpoint on a
// warm cache, requests issued concurrently (RunParallel), including JSON
// encoding of the full Inception V3 schedule in every response.
func BenchmarkServeOptimizeWarm(b *testing.B) {
	srv := httptest.NewServer(ios.NewServer(ios.ServerConfig{}))
	defer srv.Close()
	body := []byte(`{"model": "inception", "batch": 1}`)
	post := func() error {
		resp, err := http.Post(srv.URL+"/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := post(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeConcurrentCold measures request coalescing end to end:
// each iteration starts a cold server and fires 8 simultaneous /optimize
// requests for the same model, which the cache collapses into one search.
func BenchmarkServeConcurrentCold(b *testing.B) {
	body := []byte(`{"model": "fig2"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server := ios.NewServer(ios.ServerConfig{})
		srv := httptest.NewServer(server)
		var wg sync.WaitGroup
		for j := 0; j < 8; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(srv.URL+"/optimize", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
		}
		wg.Wait()
		srv.Close()
		if st := server.Cache().Stats(); st.Misses != 1 {
			b.Fatalf("misses = %d, want 1 (coalescing failed)", st.Misses)
		}
	}
}

// Search-cost benchmarks (the Figure 9 axis applied to the engine
// itself): one block's full DP search, the unit cmd/iosserve pays per
// schedule-cache miss. Each network benchmarks its hardest block (largest
// theoretical transition bound) at one worker and at GOMAXPROCS workers;
// the resulting schedule is identical at every setting, so these measure
// pure engine speed (bench/ reports the same as core.hardest_block_ms_w1
// and _wmax).

// benchSearchCostBlock times core.OptimizeBlockContext on g's hardest block.
func benchSearchCostBlock(b *testing.B, g *ios.Graph, workers int) {
	b.Helper()
	blk, err := core.HardestBlock(g)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof := profile.New(gpusim.TeslaV100)
		if _, _, err := core.OptimizeBlockContext(context.Background(), blk, prof, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// runSearchCost runs the workers=1 / workers=GOMAXPROCS sub-benchmarks.
func runSearchCost(b *testing.B, g *ios.Graph) {
	b.Run("workers=1", func(b *testing.B) { benchSearchCostBlock(b, g, 1) })
	b.Run("workers=max", func(b *testing.B) { benchSearchCostBlock(b, g, runtime.GOMAXPROCS(0)) })
}

// BenchmarkFig9SearchCostInceptionBlock times the hardest Inception V3
// block (Table 1: n=11, d=6).
func BenchmarkFig9SearchCostInceptionBlock(b *testing.B) { runSearchCost(b, ios.InceptionV3(1)) }

// BenchmarkFig9SearchCostSqueezeNetBlock times the hardest SqueezeNet
// block (Table 1: n=6, d=3).
func BenchmarkFig9SearchCostSqueezeNetBlock(b *testing.B) { runSearchCost(b, ios.SqueezeNet(1)) }

// BenchmarkFig9SearchCostNasNetBlock times the hardest NasNet-A block
// (Table 1: n=18, d=8 — a search-heavy block).
func BenchmarkFig9SearchCostNasNetBlock(b *testing.B) { runSearchCost(b, ios.NasNetA(1)) }

// BenchmarkFig9SearchCostRandWireBlock times the hardest RandWire block
// (Table 1: n=33, d=8 — the heaviest search in the zoo).
func BenchmarkFig9SearchCostRandWireBlock(b *testing.B) { runSearchCost(b, ios.RandWire(1)) }

// BenchmarkHardestBlockSearch times one search of RandWire's hardest block
// at one worker into a fresh measurement cache, and reports the simulator
// measurements it ran — cache misses, the count the DP's branch and bound
// cuts: 7,596 with every ending measured, 3,114 when the search skips those
// that cannot win.
func BenchmarkHardestBlockSearch(b *testing.B) {
	blk, err := core.HardestBlock(ios.RandWire(1))
	if err != nil {
		b.Fatal(err)
	}
	measurements := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof := profile.New(gpusim.TeslaV100)
		prof.SetMeasureCache(ios.NewMeasureCache())
		_, stats, err := core.OptimizeBlockContext(context.Background(), blk, prof, core.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		measurements += stats.Measurements
	}
	b.ReportMetric(float64(measurements)/float64(b.N), "measurements/op")
}
