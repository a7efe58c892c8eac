package profile

import (
	"ios/internal/gpusim"
)

// Backend is the measurement substrate a Profiler executes stage programs
// on. The calibrated GPU simulator (internal/gpusim) is the reference
// implementation — see SimBackend — but anything that can run a set of
// stream programs from a common start and report the wall-clock latency
// qualifies: a different simulator fidelity level, a recorded-trace
// replayer, or (on real hardware) a cuDNN/CUDA-stream harness.
//
// A Backend instance is owned by exactly one Profiler and, like the
// profiler itself, is NOT safe for concurrent use: the search engine gives
// every worker goroutine its own profiler, and each profiler obtains its
// own backend via Fork.
type Backend interface {
	// Spec describes the device the backend models or drives. The
	// profiler reads StageSync, MemBandwidth, and PeakFLOPs from it, and
	// serving layers use Name as the cache-key device component.
	Spec() gpusim.Spec
	// Run executes the stream programs launched from a common start and
	// returns at least the end-to-end Latency (excluding the stage
	// barrier, which the profiler adds from Spec().StageSync).
	Run(streams []gpusim.Stream) gpusim.Result
	// Fork returns an independent backend with the same device model for
	// use by another goroutine. Forks may share immutable calibration
	// data but must not share mutable execution state. The profiler
	// serializes Fork calls on any one Backend instance (and callers
	// quiesce measurements before forking, see Profiler.Fork), so Fork
	// never runs concurrently with itself or with Run on the same
	// instance.
	Fork() Backend
}

// SimBackend returns the default measurement backend: a fresh calibrated
// GPU simulator for the given device. It is the one backend whose stage
// latencies a Profiler can bound from below (Profiler.CanBound), which lets
// the search skip measuring stages that cannot win.
func SimBackend(spec gpusim.Spec) Backend {
	return &simBackend{sim: gpusim.New(spec)}
}

// simBackend adapts *gpusim.Sim to the Backend interface. The adapter is
// trivial by design: the simulator already has Run/Spec; only Fork (a
// fresh Sim, since simulators reuse scratch buffers across runs) is new.
type simBackend struct {
	sim *gpusim.Sim
}

func (b *simBackend) Spec() gpusim.Spec                         { return b.sim.Spec() }
func (b *simBackend) Run(streams []gpusim.Stream) gpusim.Result { return b.sim.Run(streams) }
func (b *simBackend) Fork() Backend                             { return &simBackend{sim: gpusim.New(b.sim.Spec())} }
