package profile

import (
	"testing"

	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/models"
	"ios/internal/schedule"
)

// countingBackend wraps the simulator backend and counts Run invocations
// across the whole fork tree — the shape a real instrumented or hardware
// backend would take.
type countingBackend struct {
	inner Backend
	runs  *int64 // shared across forks
}

func newCountingBackend(spec gpusim.Spec) *countingBackend {
	return &countingBackend{inner: SimBackend(spec), runs: new(int64)}
}

func (b *countingBackend) Spec() gpusim.Spec { return b.inner.Spec() }
func (b *countingBackend) Run(streams []gpusim.Stream) gpusim.Result {
	*b.runs++
	return b.inner.Run(streams)
}
func (b *countingBackend) Fork() Backend {
	return &countingBackend{inner: b.inner.Fork(), runs: b.runs}
}

// TestCustomBackendIsPluggable proves the measurement substrate is
// swappable: a profiler built over a wrapped backend produces the same
// latencies as the plain simulator, and every simulator invocation —
// including those made by forks — flows through the custom backend.
func TestCustomBackendIsPluggable(t *testing.T) {
	g := models.Figure2Block(1)
	nodes := g.SchedulableNodes()
	stage := func(n *graph.Node) schedule.Stage {
		return schedule.Stage{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{{n}}}
	}

	cb := newCountingBackend(gpusim.TeslaV100)
	custom := NewWithBackend(cb, Options{})
	plain := New(gpusim.TeslaV100)
	if custom.Spec().Name != plain.Spec().Name {
		t.Fatalf("backend spec %q, want %q", custom.Spec().Name, plain.Spec().Name)
	}

	for _, n := range nodes {
		got, err := custom.MeasureStage(stage(n))
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.MeasureStage(stage(n))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("node %s: backend latency %g, simulator latency %g", n.Name, got, want)
		}
	}
	if *cb.runs == 0 {
		t.Fatal("no measurement flowed through the custom backend")
	}

	// Forks keep measuring through the same (shared-counter) backend.
	before := *cb.runs
	fork := custom.Fork()
	if _, err := fork.MeasureStage(stage(nodes[0])); err != nil {
		t.Fatal(err)
	}
	if *cb.runs != before+1 {
		t.Fatalf("fork measurement bypassed the custom backend (runs %d -> %d)", before, *cb.runs)
	}
	if fork.Backend() == custom.Backend() {
		t.Fatal("fork shares the parent's backend instance (must be independent)")
	}
}
