package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"

	"ios"
	"ios/internal/gpusim"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/schedule"
	"ios/internal/serve"
)

//go:embed golden.json
var goldenRaw []byte

// goldenEntry pins one answer. SHA256 is of the compacted schedule JSON; the
// two latencies are compared bit for bit (encoding/json round-trips float64
// exactly).
type goldenEntry struct {
	SHA256       string  `json:"sha256,omitempty"`
	LatencyMS    float64 `json:"latency_ms"`
	SequentialMS float64 `json:"sequential_ms,omitempty"`
}

type goldenFile struct {
	Note    []string               `json:"_note"`
	Entries map[string]goldenEntry `json:"entries"`
}

var goldenNote = []string{
	"Expected answers of the IOS serving path on the V100 model, IOS-Both r=3 s=8.",
	"Keys: optimize/MODEL/bBATCH (searched), plan/MODEL/bBATCH (answered by the batch plan over 1,8,32,128), measure/MODEL/bBATCH/BASELINE.",
	"Regenerate with `bash bench/run.sh -regen-golden bench/golden.json`, and ONLY after",
	"`IOS_FULL_EQUIV=1 go test ./internal/core -run TestEngineMatchesReferenceZoo` passes on the same tree:",
	"a change here means the scheduler now returns different schedules, which is a result, not a refactor.",
	"Writing this file also executed the fig2 and inception-e batch-1 schedules over real tensors (ios.Execute) against sequential execution.",
}

func loadGolden() (map[string]goldenEntry, error) {
	var f goldenFile
	if err := json.Unmarshal(goldenRaw, &f); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return f.Entries, nil
}

func scheduleSHA(raw json.RawMessage) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return "", fmt.Errorf("schedule JSON: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// entryOf reduces a response body to the golden entry it should equal.
func entryOf(r request, body []byte) (goldenEntry, error) {
	switch r.kind {
	case kindOptimize, kindOptimizeGraph, kindOptimizePlan:
		var resp serve.OptimizeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return goldenEntry{}, fmt.Errorf("decode /optimize response: %w", err)
		}
		if (resp.Plan != nil) != (r.kind == kindOptimizePlan) {
			return goldenEntry{}, fmt.Errorf("plan routing: got plan=%v for a %s request", resp.Plan != nil, kindNames[r.kind])
		}
		sha, err := scheduleSHA(resp.Schedule)
		if err != nil {
			return goldenEntry{}, err
		}
		return goldenEntry{SHA256: sha, LatencyMS: resp.LatencyMS, SequentialMS: resp.SequentialMS}, nil
	case kindMeasureBaseline, kindMeasureSchedule:
		var resp serve.MeasureResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return goldenEntry{}, fmt.Errorf("decode /measure response: %w", err)
		}
		return goldenEntry{LatencyMS: resp.LatencyMS}, nil
	}
	return goldenEntry{}, nil
}

// checkResponse compares one answer with the golden table.
func checkResponse(golden map[string]goldenEntry, r request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, status, body)
	}
	if r.kind == kindGet {
		if !json.Valid(body) {
			return fmt.Errorf("GET %s: body is not JSON", r.path)
		}
		return nil
	}
	want, ok := golden[r.golden]
	if !ok {
		return fmt.Errorf("no golden entry %q (regenerate golden.json)", r.golden)
	}
	got, err := entryOf(r, body)
	if err != nil {
		return err
	}
	if r.kind == kindMeasureSchedule {
		// A returned schedule, measured again, must cost what /optimize said.
		want = goldenEntry{LatencyMS: want.LatencyMS}
	}
	if got != want {
		return fmt.Errorf("%s: got %+v, golden %+v", r.golden, got, want)
	}
	return nil
}

// deepVerify re-derives an /optimize answer from first principles: the
// returned schedule must parse against a freshly built graph, validate, and
// measure on a fresh uncached profiler to exactly the latency the server
// reported.
func deepVerify(r request, body []byte) (*schedule.Schedule, error) {
	var resp serve.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode /optimize response: %w", err)
	}
	entry, ok := models.EntryByName(r.key.model)
	if !ok {
		return nil, fmt.Errorf("unknown model %q", r.key.model)
	}
	s, err := schedule.FromJSON(resp.Schedule, entry.Build(r.key.batch))
	if err != nil {
		return nil, fmt.Errorf("%s: returned schedule: %w", r.key, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: returned schedule: %w", r.key, err)
	}
	lat, err := profile.New(gpusim.TeslaV100).MeasureSchedule(s)
	if err != nil {
		return nil, fmt.Errorf("%s: re-measure: %w", r.key, err)
	}
	if 1e3*lat != resp.LatencyMS {
		return nil, fmt.Errorf("%s: server said %v ms, a fresh profiler measures %v ms", r.key, resp.LatencyMS, 1e3*lat)
	}
	return s, nil
}

// executeOnTensors runs a returned schedule over real float32 tensors on the
// CPU reference executor and compares with sequential execution. It takes
// 3-15 s per model, so it runs when the golden table is written, not on every
// benchmark run: a run then proves by hash that it got the very schedule that
// passed here.
func executeOnTensors(r request, body []byte) error {
	s, err := deepVerify(r, body)
	if err != nil {
		return err
	}
	nodes := s.Graph.SchedulableNodes()
	if _, err := ios.Execute(s, nodes[len(nodes)-1].Name, 1); err != nil {
		return fmt.Errorf("%s: real-tensor execution: %w", r.key, err)
	}
	return nil
}

// regenGolden asks two fresh servers — one plain, one with the batch plan
// registered — for every answer any workload checks and writes the table.
func regenGolden(ctx context.Context, path string) error {
	entries := map[string]goldenEntry{}
	record := func(srv *serve.Server, r request) error {
		status, body := call(srv, r)
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %.200s", r.golden, status, body)
		}
		if r.kind == kindOptimize && r.key.batch == 1 && (r.key.model == "fig2" || r.key.model == "inception-e") {
			if err := executeOnTensors(r, body); err != nil {
				return err
			}
		}
		e, err := entryOf(r, body)
		if err != nil {
			return err
		}
		entries[r.golden] = e
		return nil
	}

	plain := newServer()
	noPlan := &workload{}
	keys := append(cross(allModels, 1), cross(smallModels, 16, 64)...)
	for _, k := range keys {
		if err := record(plain, noPlan.optimizeRequest(k)); err != nil {
			return err
		}
		for _, baseline := range []string{"sequential", "greedy"} {
			err := record(plain, request{
				kind: kindMeasureBaseline, method: http.MethodPost, path: "/measure",
				body:   mustJSON(map[string]any{"model": k.model, "batch": k.batch, "baseline": baseline}),
				golden: "measure/" + k.String() + "/" + baseline,
			})
			if err != nil {
				return err
			}
		}
	}

	planned := newServer()
	withPlan := &workload{planModel: "inception"}
	if err := planned.WarmPlans(ctx, []string{withPlan.planModel}, planBatches); err != nil {
		return err
	}
	for b := 1; b <= 128; b++ {
		if err := record(planned, withPlan.optimizeRequest(modelKey{withPlan.planModel, b})); err != nil {
			return err
		}
	}

	out, err := json.MarshalIndent(goldenFile{Note: goldenNote, Entries: entries}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
