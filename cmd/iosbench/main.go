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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ios/internal/expt"
	"ios/internal/gpusim"
)

// searchBaseline is the BENCH_search.json schema: enough environment to
// interpret the rows plus the rows themselves.
type searchBaseline struct {
	Device     string           `json:"device"`
	Batch      int              `json:"batch"`
	Quick      bool             `json:"quick"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Rows       []expt.SearchRow `json:"rows"`
}

// writeSearchJSON measures the DP engine's search cost and writes the
// baseline file future PRs diff against.
func writeSearchJSON(cfg expt.Config, path string) error {
	rows, err := expt.SearchCostRows(cfg)
	if err != nil {
		return err
	}
	out := searchBaseline{
		Device:     cfg.Device.Name,
		Batch:      cfg.Batch,
		Quick:      cfg.Quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Rows:       rows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measureBaseline is the BENCH_measure.json schema: environment plus the
// uncached/cold/warm measurement-cache rows.
type measureBaseline struct {
	Device     string            `json:"device"`
	Batch      int               `json:"batch"`
	Quick      bool              `json:"quick"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Rows       []expt.MeasureRow `json:"rows"`
}

// writeMeasureJSON runs the measurement-cache comparison (experiment
// "measure-cache") and writes the baseline file future PRs diff against.
func writeMeasureJSON(cfg expt.Config, path string) error {
	rows, err := expt.MeasureCacheRows(cfg)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if !r.Identical {
			return fmt.Errorf("cached %s search diverged from the uncached oracle (fingerprint soundness bug)", r.Network)
		}
	}
	out := measureBaseline{
		Device:     cfg.Device.Name,
		Batch:      cfg.Batch,
		Quick:      cfg.Quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Rows:       rows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// blocksBaseline is the BENCH_blocks.json schema: environment plus the
// uncached/cold/warm block-cache rows.
type blocksBaseline struct {
	Device     string          `json:"device"`
	Batch      int             `json:"batch"`
	Quick      bool            `json:"quick"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Rows       []expt.BlockRow `json:"rows"`
}

// writeBlocksJSON runs the whole-block schedule cache comparison
// (experiment "block-cache") and writes the baseline file future PRs diff
// against, failing if a cached run ever diverges from the uncached
// oracle or a warm run still searches.
func writeBlocksJSON(cfg expt.Config, path string) error {
	rows, err := expt.BlockCacheRows(cfg)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if !r.Identical {
			return fmt.Errorf("cached %s search diverged from the uncached oracle (fingerprint soundness bug)", r.Network)
		}
		if r.WarmSearches != 0 {
			return fmt.Errorf("warm %s run still executed %d block searches (fingerprint instability bug)", r.Network, r.WarmSearches)
		}
	}
	out := blocksBaseline{
		Device:     cfg.Device.Name,
		Batch:      cfg.Batch,
		Quick:      cfg.Quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Rows:       rows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// specializeBaseline is the BENCH_specialize.json schema: environment
// plus one cross-batch latency/penalty matrix per network.
type specializeBaseline struct {
	Device     string               `json:"device"`
	Batches    []int                `json:"batches"`
	Quick      bool                 `json:"quick"`
	GoMaxProcs int                  `json:"gomaxprocs"`
	Rows       []expt.SpecializeRow `json:"rows"`
}

// writeSpecializeJSON runs the batch-specialization sweep (experiment
// "specialize") and writes the baseline file future PRs diff against,
// failing if specialization ever loses: every column's minimum latency
// must sit on the diagonal (the specialized schedule).
func writeSpecializeJSON(cfg expt.Config, batches []int, path string) error {
	rows, err := expt.SpecializeRows(cfg, batches)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if !r.DiagonalWins {
			return fmt.Errorf("%s: a reused schedule beat the specialized one (search or measurement-consistency bug)", r.Network)
		}
	}
	// Record the sweep as the rows actually ran it (sorted, deduplicated
	// by the plan builder), not the raw flag value, so tooling indexing
	// matrix columns by this field reads the right cells.
	batches = rows[0].Batches
	out := specializeBaseline{
		Device:     cfg.Device.Name,
		Batches:    batches,
		Quick:      cfg.Quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Rows:       rows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// trafficBaseline is the BENCH_traffic.json schema: environment plus one
// row per arrival regime comparing the dispatch policies.
type trafficBaseline struct {
	Device     string            `json:"device"`
	Quick      bool              `json:"quick"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Rows       []expt.TrafficRow `json:"rows"`
}

// writeTrafficJSON runs the serving-under-traffic comparison (experiment
// "traffic") and writes the baseline file future PRs diff against,
// failing unless — under the Poisson regime — the adaptive policy beats
// dispatch-immediately throughput while keeping p99 within the SLO.
func writeTrafficJSON(cfg expt.Config, path string) error {
	rows, err := expt.TrafficRows(cfg)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.Regime != "poisson" {
			continue
		}
		if !r.AdaptiveBeatsBatch1 {
			return fmt.Errorf("%s/%s: adaptive throughput did not beat batch=1 (dispatch-policy regression)", r.Network, r.Regime)
		}
		if !r.AdaptiveWithinSLO {
			return fmt.Errorf("%s/%s: adaptive p99 exceeded the %.1fms SLO (dispatch-policy regression)", r.Network, r.Regime, r.SLOMS)
		}
	}
	out := trafficBaseline{
		Device:     cfg.Device.Name,
		Quick:      cfg.Quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Rows:       rows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseBatches parses the -batches sweep ("" = the experiment default).
func parseBatches(v string) ([]int, error) {
	if v == "" {
		return nil, nil
	}
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

func main() {
	var (
		expFlag        = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		deviceFlag     = flag.String("device", "v100", "device: v100, k80, 2080ti, 1080, 980ti, a100")
		batchFlag      = flag.Int("batch", 1, "batch size where applicable")
		batchesFlag    = flag.String("batches", "", "comma-separated batch sweep for -specialize-json (default: the paper's Table 3 set, 1,32,128)")
		quickFlag      = flag.Bool("quick", false, "use reduced models for a fast smoke run")
		listFlag       = flag.Bool("list", false, "list experiment ids and exit")
		rFlag          = flag.Int("r", 3, "pruning: max operators per group")
		sFlag          = flag.Int("s", 8, "pruning: max groups per stage")
		searchJSON     = flag.String("search-json", "", "write the search-cost rows (experiment \"search\") as JSON to this file and exit")
		measureJSON    = flag.String("measure-json", "", "write the measurement-cache rows (experiment \"measure-cache\": hits, misses, measurements saved) as JSON to this file and exit")
		blocksJSON     = flag.String("blocks-json", "", "write the block-cache rows (experiment \"block-cache\": block DP searches uncached/cold/warm) as JSON to this file and exit; fails if a cached schedule diverges from the uncached oracle")
		specializeJSON = flag.String("specialize-json", "", "write the batch-specialization rows (experiment \"specialize\": cross-batch latency and penalty matrices) as JSON to this file and exit; fails if any column's minimum leaves the diagonal")
		trafficJSON    = flag.String("traffic-json", "", "write the serving-under-traffic rows (experiment \"traffic\": adaptive vs fixed-batch vs dispatch-immediately over seeded Poisson and bursty traces) as JSON to this file and exit; fails unless adaptive beats batch=1 throughput with p99 within SLO under Poisson")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"iosbench regenerates the paper's tables and figures on the simulated devices (all of them by default; see -exp and -list).\n\nUsage: iosbench [flags]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, name := range expt.Names() {
			fmt.Println(name)
		}
		return
	}
	spec, ok := gpusim.SpecByName(*deviceFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "iosbench: unknown device %q\n", *deviceFlag)
		os.Exit(2)
	}
	cfg := expt.Config{Device: spec, Batch: *batchFlag, Quick: *quickFlag}
	cfg.Opts.Pruning.R = *rFlag
	cfg.Opts.Pruning.S = *sFlag

	if *searchJSON != "" {
		if err := writeSearchJSON(cfg, *searchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "iosbench: -search-json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote search-cost baseline to %s\n", *searchJSON)
		return
	}
	if *measureJSON != "" {
		if err := writeMeasureJSON(cfg, *measureJSON); err != nil {
			fmt.Fprintf(os.Stderr, "iosbench: -measure-json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote measurement-cache baseline to %s\n", *measureJSON)
		return
	}
	if *blocksJSON != "" {
		if err := writeBlocksJSON(cfg, *blocksJSON); err != nil {
			fmt.Fprintf(os.Stderr, "iosbench: -blocks-json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote block-cache baseline to %s\n", *blocksJSON)
		return
	}
	if *specializeJSON != "" {
		batches, err := parseBatches(*batchesFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iosbench: -batches: %v\n", err)
			os.Exit(2)
		}
		if err := writeSpecializeJSON(cfg, batches, *specializeJSON); err != nil {
			fmt.Fprintf(os.Stderr, "iosbench: -specialize-json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote batch-specialization baseline to %s\n", *specializeJSON)
		return
	}
	if *trafficJSON != "" {
		if err := writeTrafficJSON(cfg, *trafficJSON); err != nil {
			fmt.Fprintf(os.Stderr, "iosbench: -traffic-json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote serving-under-traffic baseline to %s\n", *trafficJSON)
		return
	}

	ids := expt.Names()
	if *expFlag != "" {
		ids = strings.Split(*expFlag, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := expt.All[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "iosbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		fmt.Printf("### %s ###\n", id)
		if err := run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "iosbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
