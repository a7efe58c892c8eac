package plan

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ios/internal/atomicfile"
	"ios/internal/graph"
	"ios/internal/schedule"
)

// fileVersion is the persisted-plan format version.
const fileVersion = 1

// planFile is the persisted JSON form of a Plan: the architecture once
// (as graph JSON at the smallest planned batch), one schedule recipe per
// sweep point, and the measured cross-batch latency matrix. Graphs at the
// other batch sizes are reconstructed with Graph.WithBatch on load.
type planFile struct {
	Version int    `json:"version"`
	Model   string `json:"model"`
	Device  string `json:"device"`
	Opts    string `json:"opts"`
	Batches []int  `json:"batches"`
	// Graph is the architecture at Batches[0].
	Graph json.RawMessage `json:"graph"`
	// Schedules[i] is the name-based schedule recipe for Batches[i].
	Schedules []json.RawMessage `json:"schedules"`
	// LatencySeconds is the cross-batch matrix (row = optimized-for
	// batch, column = executed-at batch).
	LatencySeconds [][]float64 `json:"latency_seconds"`
}

// Save writes the plan as JSON.
func (p *Plan) Save(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	out := planFile{
		Version: fileVersion,
		Model:   p.Model,
		Device:  p.Device,
		Opts:    p.Opts,
		Batches: p.Batches(),
	}
	g, err := p.Points[0].Graph.MarshalJSON()
	if err != nil {
		return fmt.Errorf("plan: marshal graph: %w", err)
	}
	out.Graph = g
	for _, pt := range p.Points {
		s, err := pt.Schedule.MarshalJSON()
		if err != nil {
			return fmt.Errorf("plan: marshal batch-%d schedule: %w", pt.Batch, err)
		}
		out.Schedules = append(out.Schedules, s)
	}
	out.LatencySeconds = p.Latency
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load reads a plan previously written by Save, rebuilding every point's
// graph and rebinding its schedule. Like the measurement cache's Load it
// is all-or-nothing: the whole file is parsed and the reconstructed plan
// fully validated (including every schedule against its graph) before it
// is returned, so a corrupt, truncated, or version-mismatched file
// returns an error and never a half-usable plan.
func Load(r io.Reader) (*Plan, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("plan: read: %w", err)
	}
	var in planFile
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("plan: parse: %w", err)
	}
	if in.Version != fileVersion {
		return nil, fmt.Errorf("plan: file version %d, want %d", in.Version, fileVersion)
	}
	if len(in.Batches) == 0 {
		return nil, fmt.Errorf("plan: file has no batches")
	}
	if len(in.Schedules) != len(in.Batches) {
		return nil, fmt.Errorf("plan: file has %d schedules for %d batches", len(in.Schedules), len(in.Batches))
	}
	base, err := graph.FromJSON(in.Graph)
	if err != nil {
		return nil, fmt.Errorf("plan: graph: %w", err)
	}
	p := &Plan{Model: in.Model, Device: in.Device, Opts: in.Opts, Latency: in.LatencySeconds}
	for i, b := range in.Batches {
		g, err := base.WithBatch(b)
		if err != nil {
			return nil, fmt.Errorf("plan: batch %d: %w", b, err)
		}
		s, err := schedule.FromJSON(in.Schedules[i], g)
		if err != nil {
			return nil, fmt.Errorf("plan: batch-%d schedule: %w", b, err)
		}
		pt := Point{Batch: b, Graph: g, Schedule: s}
		if i < len(p.Latency) && i < len(p.Latency[i]) {
			pt.Latency = p.Latency[i][i]
		}
		p.Points = append(p.Points, pt)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// SaveFile writes the plan to path atomically (see atomicfile.Write), so a
// crash mid-save never truncates a previously good plan file.
func (p *Plan) SaveFile(path string) error {
	return atomicfile.Write(path, p.Save)
}

// LoadFile reads the plan file at path; see Load.
func LoadFile(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
