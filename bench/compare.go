package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runRecord is one line of a -append file: a run's result line plus what the
// result line itself does not say.
type runRecord struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Trace    bool            `json:"trace"`
	Result   json.RawMessage `json:"result"`
}

type resultValues struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runSet is workload → metric → one value per run.
type runSet map[string]map[string][]float64

func loadRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue // per-layer metrics carry no bound
		}
		var vals resultValues
		if err := json.Unmarshal(rec.Result, &vals); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !vals.Correct || vals.Failed > 0 {
			return nil, fmt.Errorf("%s:%d: %s seed %d had %d failed operations; failed runs are not compared", path, line, rec.Workload, rec.Seed, vals.Failed)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, v := range vals.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], v.Value)
		}
	}
	return set, sc.Err()
}

// compareFiles prints one row per workload × end-to-end metric and reports
// whether B stayed within every bound. A pair whose own run-to-run spread
// (interquartile range over median, on either side) exceeds the bound is
// marked unresolved rather than passed — unless every run of B beats every
// run of A, which no amount of spread can explain away.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-12s %-18s %5s | %12s %12s %12s %3s | %12s %12s %12s %3s | %9s %7s  %s\n",
		"workload", "metric", "bound", "A median", "A q1", "A q3", "n", "B median", "B q1", "B q3", "n", "B/A", "worse", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.name][d.name], b[wl.name][d.name]
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s/%s: %d runs in %s but %d in %s", wl.name, d.name, len(va), pathA, len(vb), pathB)
			}
			sa, sb := summarize(va), summarize(vb)
			worse := worsening(d.better, sa.median, sb.median)
			spread := func(s summary) float64 {
				if s.n < 2 || s.median == 0 {
					return 0
				}
				return (s.q3 - s.q1) / s.median
			}
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict, ok = "REGRESSION", false
			case (spread(sa) > d.bound || spread(sb) > d.bound) && !allBetter(d.better, va, vb):
				verdict = "unresolved (spread > bound)"
			}
			fmt.Fprintf(w, "%-12s %-18s %4.1f%% | %12.6g %12.6g %12.6g %3d | %12.6g %12.6g %12.6g %3d | %9.4f %+6.1f%%  %s\n",
				wl.name, d.name, 100*d.bound, sa.median, sa.q1, sa.q3, sa.n, sb.median, sb.q1, sb.q3, sb.n,
				sb.median/sa.median, 100*worse, verdict)
		}
	}
	return ok, nil
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(better string, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worsening(better, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}
