package profile

import (
	"testing"

	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/schedule"
)

// benchStage builds a representative multi-group concurrent stage from the
// Figure 2 block (three parallel convolutions).
func benchStage(b *testing.B) schedule.Stage {
	b.Helper()
	g := models.Figure2Block(1)
	m := map[string]*graph.Node{}
	for _, n := range g.Nodes {
		m[n.Name] = n
	}
	return schedule.Stage{Strategy: schedule.Concurrent,
		Groups: [][]*graph.Node{{m["a"]}, {m["c"]}, {m["d"]}}}
}

// BenchmarkMeasureStageMemoHit times MeasureStage's hit path on an
// attached measure.Cache — the per-stage cost a search pays on every
// repeat of a stage: the id key strung together from the nodes' encoded
// kernel ids and one lock-free probe of the cache's flat table. ROADMAP
// item 4 compares it with BenchmarkMeasureStageRun, the simulator run it
// saves.
func BenchmarkMeasureStageMemoHit(b *testing.B) {
	st := benchStage(b)
	p := New(gpusim.TeslaV100)
	p.SetMeasureCache(measure.NewCache())
	if _, err := p.MeasureStage(st); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.MeasureStage(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureStageRun times the same stage with no cache attached:
// lowered into stream programs and run on the simulator every call.
func BenchmarkMeasureStageRun(b *testing.B) {
	st := benchStage(b)
	p := New(gpusim.TeslaV100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.MeasureStage(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureScheduleWarm times a full-network schedule measurement
// with every stage already in the attached cache (the serving tier's
// per-request measurement cost on warm models, less the fresh profiler's
// lowering).
func BenchmarkMeasureScheduleWarm(b *testing.B) {
	g := models.SqueezeNet(1)
	var stages []schedule.Stage
	for _, n := range g.SchedulableNodes() {
		stages = append(stages, schedule.Stage{Strategy: schedule.Concurrent,
			Groups: [][]*graph.Node{{n}}})
	}
	s := &schedule.Schedule{Graph: g, Stages: stages}
	p := New(gpusim.TeslaV100)
	p.SetMeasureCache(measure.NewCache())
	if _, err := p.MeasureSchedule(s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.MeasureSchedule(s); err != nil {
			b.Fatal(err)
		}
	}
}
