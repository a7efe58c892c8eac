package profile

import (
	"sort"
	"sync"

	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/schedule"
)

// Profiler measures stage and schedule latencies on a measurement Backend
// (by default the calibrated GPU simulator). A measurement is a pure
// function of the stage's lowered stream programs on the profiled device:
// the profiler itself memoizes only per-node lowering and solo durations,
// and repeated stages are deduplicated by the attached measure.Cache, if
// any (see SetMeasureCache). Measurement jitter, if ever wanted, is a
// Backend whose Run perturbs its own result.
type Profiler struct {
	backend Backend
	opts    Options

	// mcache, when non-nil, is a shared structural measurement cache
	// consulted by every simulator invocation (stage and solo-duration
	// measurements alike) — the only stage memo below the DP engine's
	// per-block ending table. Forks share the pointer, so all DP workers
	// of one search — and, via Engine/serve wiring, all searches in a
	// process — deduplicate against one table.
	mcache *measure.Cache
	// ctxKey is the lazily built measurement-context key prefix (device
	// model + dispatch overhead); keyBuf is reusable key scratch.
	ctxKey []byte
	keyBuf []byte
	// soloStreams is the single-stream scratch for SoloDuration.
	soloStreams [1]gpusim.Stream
	// Lowering and solo durations are pure per (node, options) — nodes are
	// immutable and options are fixed per profiler — so forks share them.
	// Each is split into an immutable shared base (published by Fork, read
	// without locking) and a private overlay for entries computed since.
	//
	// baseLowered/baseSolo are never mutated after publication; mu guards
	// only the freeze-and-publish step in Fork.
	mu          sync.Mutex
	baseLowered map[int][]gpusim.Kernel
	baseSolo    map[int]float64
	// lowered overlays baseLowered with each node's kernel sequence.
	lowered map[int][]gpusim.Kernel
	// solo overlays baseSolo with each node's single-stream duration (its
	// kernels run back-to-back, alone on the device), the building block of
	// serial chains: kernels on one stream do not interact in the
	// simulator, so a chain's latency is exactly the sum of its nodes'
	// solo durations.
	solo map[int]float64
	// Measurements counts simulator invocations (not cache hits), the
	// analogue of on-device measurements the paper's search cost tracks.
	Measurements int

	// Stream-building scratch; see stageStreamsPooled.
	streamBuf     []gpusim.Stream
	streamKernels [][]gpusim.Kernel
}

// New returns a profiler for the given device with default (IOS engine)
// lowering options.
func New(spec gpusim.Spec) *Profiler {
	return NewWithOptions(spec, Options{})
}

// NewWithOptions returns a profiler with custom lowering options.
func NewWithOptions(spec gpusim.Spec, opts Options) *Profiler {
	if opts.LaunchOverheadScale > 0 {
		spec.KernelLaunch *= opts.LaunchOverheadScale
	}
	return NewWithBackend(SimBackend(spec), opts)
}

// NewWithBackend returns a profiler that measures on the given backend
// instead of constructing its own simulator. The backend's Spec is taken
// verbatim (Options.LaunchOverheadScale, which adjusts the spec before a
// simulator is built, does not apply — fold any such adjustment into the
// backend itself).
func NewWithBackend(b Backend, opts Options) *Profiler {
	return &Profiler{
		backend: b,
		opts:    opts,
		lowered: make(map[int][]gpusim.Kernel),
		solo:    make(map[int]float64),
	}
}

// Spec returns the device spec being profiled.
func (p *Profiler) Spec() gpusim.Spec { return p.backend.Spec() }

// Backend returns the measurement backend in use.
func (p *Profiler) Backend() Backend { return p.backend }

// Options returns the lowering options in use.
func (p *Profiler) Options() Options { return p.opts }

// SetMeasureCache attaches a shared structural measurement cache: every
// simulator invocation first consults (and on a miss fills) c, keyed by
// the canonical fingerprint of the exact stream programs being executed
// on this profiler's device model. Cached values are exact simulator
// outputs, so results are bit-identical with or without the cache — only
// Measurements drops. The cache is concurrency-safe and survives this
// profiler: share one instance across profilers, searches, and servers to
// amortize repeated structure (nil detaches). Forks inherit the cache.
func (p *Profiler) SetMeasureCache(c *measure.Cache) { p.mcache = c }

// MeasureCache returns the attached structural measurement cache (nil if
// none).
func (p *Profiler) MeasureCache() *measure.Cache { return p.mcache }

// contextKey returns the measurement-context key prefix, building it on
// first use (the backend spec and lowering options are fixed per
// profiler, so the prefix is immutable and shared with forks).
func (p *Profiler) contextKey() []byte {
	if p.ctxKey == nil {
		p.ctxKey = measure.Context(p.backend.Spec(), p.opts.ExtraLaunchOverhead)
	}
	return p.ctxKey
}

// Fork returns an independent profiler with the same device and options
// but its own simulator and scratch, so searches can run on separate
// goroutines. The parent's lowered-kernel and solo-duration tables — pure,
// node-immutable data — are frozen and shared with the fork read-only, so
// forks never re-lower nodes the parent (or a Prelower call) has already
// processed. Measurement counts accumulate per fork; callers sum them.
//
// Fork synchronizes with concurrent Fork calls but not with in-flight
// measurements on the same profiler; quiesce the parent before forking.
func (p *Profiler) Fork() *Profiler {
	p.mu.Lock()
	p.freezeLocked()
	base, baseSolo := p.baseLowered, p.baseSolo
	// Fork the backend under the same lock: concurrent Profiler.Fork
	// calls are allowed, and serializing Backend.Fork here means backend
	// implementations only need Fork to be safe against the profiler's
	// documented discipline (no concurrent Run on the parent), not
	// against concurrent Fork calls.
	backend := p.backend.Fork()
	p.mu.Unlock()
	f := &Profiler{
		// The forked backend carries the parent's spec verbatim,
		// including any LaunchOverheadScale adjustment, which
		// NewWithOptions would wrongly apply a second time.
		backend:     backend,
		opts:        p.opts,
		mcache:      p.mcache,
		ctxKey:      p.ctxKey, // immutable once built; nil rebuilds lazily
		baseLowered: base,
		baseSolo:    baseSolo,
		lowered:     make(map[int][]gpusim.Kernel),
		solo:        make(map[int]float64),
	}
	return f
}

// freezeLocked merges the private overlays into fresh immutable base maps
// so they can be shared with forks. Caller holds p.mu.
func (p *Profiler) freezeLocked() {
	if len(p.lowered) == 0 && len(p.solo) == 0 {
		return // base already covers everything computed so far
	}
	lowered := make(map[int][]gpusim.Kernel, len(p.baseLowered)+len(p.lowered))
	for id, ks := range p.baseLowered {
		lowered[id] = ks
	}
	for id, ks := range p.lowered {
		lowered[id] = ks
	}
	solo := make(map[int]float64, len(p.baseSolo)+len(p.solo))
	for id, d := range p.baseSolo {
		solo[id] = d
	}
	for id, d := range p.solo {
		solo[id] = d
	}
	p.baseLowered, p.baseSolo = lowered, solo
	p.lowered = make(map[int][]gpusim.Kernel)
	p.solo = make(map[int]float64)
}

// Prelower computes the kernel sequence and solo duration of every given
// node, so subsequent forks share the full tables instead of re-lowering
// per goroutine. Solo durations that are not yet cached cost one simulator
// invocation each (counted in Measurements, exactly as lazy computation
// would have been).
func (p *Profiler) Prelower(nodes []*graph.Node) {
	for _, n := range nodes {
		p.SoloDuration(n) // lowers the node and caches both tables
	}
}

// canonicalStage returns the stage with its groups in canonical order —
// ascending first-node ID, the order the DP engine measures and emits
// stages in — so group order never affects a measurement key. The common
// already-ordered case is detected without allocating; otherwise the
// group slice (not the groups themselves) is copied, leaving the caller's
// stage untouched.
func canonicalStage(st schedule.Stage) schedule.Stage {
	ordered := true
	for i := 1; i < len(st.Groups); i++ {
		if groupLess(st.Groups[i], st.Groups[i-1]) {
			ordered = false
			break
		}
	}
	if ordered {
		return st
	}
	groups := append([][]*graph.Node(nil), st.Groups...)
	sort.Slice(groups, func(i, j int) bool { return groupLess(groups[i], groups[j]) })
	st.Groups = groups
	return st
}

// groupLess orders groups by their first node's ID (empty groups first).
func groupLess(a, b []*graph.Node) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) < len(b)
	}
	return a[0].ID < b[0].ID
}

// stageMeasureKey builds the canonical measurement key for already
// lowered stream programs into the profiler's reusable scratch; valid
// until the next call.
func (p *Profiler) stageMeasureKey(streams []gpusim.Stream) []byte {
	p.keyBuf = measure.AppendStreams(append(p.keyBuf[:0], p.contextKey()...), streams)
	return p.keyBuf
}

// StageFingerprint returns the stage's canonical measurement fingerprint:
// the exact cache key its simulator invocation would use (device-model
// context plus the lowered per-stream kernel signatures, group order
// normalized). Two stages with equal fingerprints have bit-identical
// measured latencies; node identity, names, and graph position do not
// enter. The returned slice is freshly allocated.
func (p *Profiler) StageFingerprint(st schedule.Stage) ([]byte, error) {
	streams, err := p.stageStreamsPooled(canonicalStage(st))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), p.stageMeasureKey(streams)...), nil
}

// lowerNode returns the node's kernels through the shared-base/overlay
// cache pair.
func (p *Profiler) lowerNode(n *graph.Node) []gpusim.Kernel {
	if ks, ok := p.baseLowered[n.ID]; ok {
		return ks
	}
	if ks, ok := p.lowered[n.ID]; ok {
		return ks
	}
	ks := LowerNode(n, p.opts)
	p.lowered[n.ID] = ks
	return ks
}

// stageStreamsPooled lowers a stage into the profiler's reusable stream
// scratch. The result is valid until the next pooled call; callers must
// not retain it. The Merge path still allocates (kernel fusion builds new
// kernels by nature).
func (p *Profiler) stageStreamsPooled(st schedule.Stage) ([]gpusim.Stream, error) {
	if st.Strategy == schedule.Merge {
		kernels, err := MergedKernels(st.Ops(), p.opts)
		if err != nil {
			return nil, err
		}
		p.streamBuf = append(p.streamBuf[:0], kernels)
		return p.streamBuf, nil
	}
	streams := p.streamBuf[:0]
	used := 0
	for _, grp := range st.Groups {
		if used == len(p.streamKernels) {
			p.streamKernels = append(p.streamKernels, nil)
		}
		s := p.streamKernels[used][:0]
		for _, n := range grp {
			s = append(s, p.lowerNode(n)...)
		}
		if len(s) > 0 {
			p.streamKernels[used] = s
			streams = append(streams, gpusim.Stream(s))
			used++
		}
	}
	p.streamBuf = streams
	if len(streams) == 0 {
		// A stage of only free ops (identities) still pays the barrier;
		// emit no streams.
		return nil, nil
	}
	return streams, nil
}

// MeasureStage returns the latency of one stage in seconds, including the
// stage synchronization barrier: the stage, group order normalized, is
// lowered into per-profiler scratch (the simulator does not retain stream
// programs, so even the DP's hundreds of thousands of measurements produce
// no stream garbage) and run once. Structurally identical stages — whatever
// their node identity or group order — lower to the same programs and so
// measure identically; the attached measure.Cache, if any, makes the
// repeats free.
func (p *Profiler) MeasureStage(st schedule.Stage) (float64, error) {
	streams, err := p.stageStreamsPooled(canonicalStage(st))
	if err != nil {
		return 0, err
	}
	return p.runOnce(streams), nil
}

// runOnce measures one stage execution: the stage barrier plus, for
// non-empty programs, a (possibly cache-served) simulator run. An all-free
// stage still counts as a measurement, as it always has.
func (p *Profiler) runOnce(streams []gpusim.Stream) float64 {
	lat := p.backend.Spec().StageSync
	if len(streams) == 0 {
		p.Measurements++
		return lat
	}
	return lat + p.runStreams(streams)
}

// runStreams executes stream programs on the backend (with framework
// dispatch overhead applied), consulting the shared structural
// measurement cache when one is attached: the canonical fingerprint of
// the exact programs is looked up first, and only a miss claims the key
// and invokes the simulator (counted in Measurements). Concurrent misses
// for one fingerprint — e.g. two DP workers reaching the same repeated
// cell structure — coalesce into a single simulation.
func (p *Profiler) runStreams(streams []gpusim.Stream) float64 {
	if p.mcache == nil {
		p.Measurements++
		return p.backend.Run(p.applyExtraOverhead(streams)).Latency
	}
	// A nil done channel: measurements take microseconds, so a coalesced
	// waiter is never worth cancelling.
	lat, claim, _ := p.mcache.GetOrBegin(nil, p.stageMeasureKey(streams))
	if claim != nil {
		// A panicking backend (gpusim rejects invalid kernels by panic)
		// must not leave the claimed fingerprint locked forever for
		// every future requester of a shared cache: abandon the claim so
		// waiters retry and the key stays measurable.
		committed := false
		defer func() {
			if !committed {
				claim.Abandon()
			}
		}()
		p.Measurements++
		lat = p.backend.Run(p.applyExtraOverhead(streams)).Latency
		claim.Commit(lat)
		committed = true
	}
	return lat
}

// applyExtraOverhead folds framework dispatch overhead into kernels by
// prefixing each with an overhead-only kernel; the simulator serializes it
// on the stream like real dispatch.
func (p *Profiler) applyExtraOverhead(streams []gpusim.Stream) []gpusim.Stream {
	if p.opts.ExtraLaunchOverhead <= 0 {
		return streams
	}
	out := make([]gpusim.Stream, len(streams))
	for i, s := range streams {
		ns := make(gpusim.Stream, 0, len(s))
		for _, k := range s {
			// Model dispatch as extra bytes at full bandwidth? No:
			// dispatch is CPU-side serialized time. Encode it by
			// inflating the launch via a zero-work kernel pair is
			// wasteful; instead extend Bytes by overhead*bandwidth so
			// the duration grows by exactly the overhead while staying
			// on this stream.
			k.Bytes += p.opts.ExtraLaunchOverhead * p.backend.Spec().MemBandwidth
			ns = append(ns, k)
		}
		out[i] = ns
	}
	return out
}

// MeasureSerialChain returns the latency of executing the nodes
// back-to-back on a single stream plus the stage barrier — the latency of
// a one-group concurrent stage. Kernels on one stream never overlap in
// the simulator, so the chain's time decomposes into per-node solo
// durations, which are cached; this makes the scheduler's serial-tail
// candidate O(|S|) per state instead of a fresh multi-kernel simulation.
func (p *Profiler) MeasureSerialChain(nodes []*graph.Node) float64 {
	total := p.backend.Spec().StageSync
	for _, n := range nodes {
		total += p.SoloDuration(n)
	}
	return total
}

// SoloDuration returns (and caches) one node's single-stream duration:
// its kernels back-to-back, alone on the device, without the stage
// barrier. Serial chains decompose into these exactly, which is what lets
// the DP engine evaluate its serial-tail candidate per state without a
// simulator run.
func (p *Profiler) SoloDuration(n *graph.Node) float64 {
	if d, ok := p.baseSolo[n.ID]; ok {
		return d
	}
	if d, ok := p.solo[n.ID]; ok {
		return d
	}
	kernels := p.lowerNode(n)
	var d float64
	if len(kernels) > 0 {
		// Through runStreams so the shared structural cache dedups solo
		// simulations of structurally identical nodes (repeated cells)
		// across blocks, forks, and searches.
		p.soloStreams[0] = gpusim.Stream(kernels)
		d = p.runStreams(p.soloStreams[:])
	}
	p.solo[n.ID] = d
	return d
}

// MeasureSchedule returns the end-to-end latency of a schedule in seconds.
func (p *Profiler) MeasureSchedule(s *schedule.Schedule) (float64, error) {
	var total float64
	for _, st := range s.Stages {
		lat, err := p.MeasureStage(st)
		if err != nil {
			return 0, err
		}
		total += lat
	}
	return total, nil
}

// TraceSchedule executes the schedule once with warp-trace recording and
// returns the end-to-end latency and the concatenated trace (Figure 8).
// Trace recording is a simulator feature: the schedule runs on a fresh
// simulator for the profiled spec regardless of the configured Backend.
func (p *Profiler) TraceSchedule(s *schedule.Schedule) (float64, *gpusim.WarpTrace, error) {
	sim := gpusim.New(p.backend.Spec())
	sim.RecordTrace = true
	full := &gpusim.WarpTrace{}
	var total float64
	for _, st := range s.Stages {
		streams, err := p.stageStreamsPooled(st)
		if err != nil {
			return 0, nil, err
		}
		spec := sim.Spec()
		if len(streams) > 0 {
			res := sim.Run(p.applyExtraOverhead(streams))
			total += res.Latency
			full.Append(res.Trace)
		}
		total += spec.StageSync
		full.AppendIdle(spec.StageSync)
	}
	return total, full, nil
}

// TimelineSchedule executes the schedule once with kernel-span recording
// and returns the end-to-end latency plus the concatenated timeline
// (stages shifted by their start offsets, stream ids local to each stage).
// Like TraceSchedule, this always runs on a fresh simulator for the
// profiled spec (span recording is a simulator feature).
func (p *Profiler) TimelineSchedule(s *schedule.Schedule) (float64, gpusim.Timeline, error) {
	sim := gpusim.New(p.backend.Spec())
	sim.RecordTimeline = true
	var full gpusim.Timeline
	var total float64
	for _, st := range s.Stages {
		streams, err := p.stageStreamsPooled(st)
		if err != nil {
			return 0, nil, err
		}
		if len(streams) > 0 {
			res := sim.Run(p.applyExtraOverhead(streams))
			full = append(full, res.Timeline.Shift(total)...)
			total += res.Latency
		}
		total += sim.Spec().StageSync
	}
	return total, full, nil
}

// StageProfile describes a stage the way Figure 2 annotates one: its
// arithmetic work, achieved performance, and device utilization.
type StageProfile struct {
	// Latency is the measured stage time in seconds (incl. barrier).
	Latency float64
	// GFLOPs is the stage's arithmetic work in 1e9 FLOPs.
	GFLOPs float64
	// TFLOPSs is the achieved throughput in 1e12 FLOP/s.
	TFLOPSs float64
	// Utilization is achieved/peak throughput in [0, 1].
	Utilization float64
}

// ProfileStage measures a stage and derives its Figure 2-style profile.
func (p *Profiler) ProfileStage(st schedule.Stage) (StageProfile, error) {
	streams, err := p.stageStreamsPooled(canonicalStage(st))
	if err != nil {
		return StageProfile{}, err
	}
	var flops float64
	for _, s := range streams {
		flops += s.TotalFLOPs()
	}
	lat := p.runOnce(streams)
	prof := StageProfile{Latency: lat, GFLOPs: flops / 1e9}
	if lat > 0 {
		prof.TFLOPSs = flops / lat / 1e12
		prof.Utilization = flops / lat / p.backend.Spec().PeakFLOPs
	}
	return prof, nil
}
