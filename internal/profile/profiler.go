package profile

import (
	"encoding/binary"
	"slices"
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
// the profiler itself memoizes only each node's lowering and solo duration
// (one table, see lowering), and repeated stages are deduplicated by the
// attached measure.Cache, if any (see SetMeasureCache). Measurement jitter,
// if ever wanted, is a Backend whose Run perturbs its own result.
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
	// ctxKey is the lazily built long-form measurement context (device
	// model + dispatch overhead). ctxID is its id in mcache's dictionary,
	// encoded as every id key under it begins; nil with no cache attached
	// or no room in its dictionary, and then nothing is keyed. keyBuf and
	// idBuf are reusable key scratch.
	ctxKey []byte
	ctxID  []byte
	keyBuf []byte
	idBuf  []byte
	// sigIDs reads through to mcache's dictionary for kernels built at the
	// call (merged stages), so resolving them takes no lock. Not shared
	// with forks.
	sigIDs map[measure.Signature]uint32
	// table is the lowering table: table[n.ID] is node n's lowering, unless
	// it is nil, out of range or made from another graph's node of that ID
	// — then n is lowered now and takes the slot. A lowering is pure per
	// (node, options, cache) — nodes are immutable, options are fixed per
	// profiler and a cache's ids never change — so forks share the table
	// copy-on-write: after a Fork neither side owns the slice, whoever
	// stores into a table it does not own clones it first, and a stored
	// entry is never written again. mu guards owned and serializes
	// Backend.Fork; only the goroutine driving the profiler touches table.
	mu    sync.Mutex
	table []*lowering
	owned bool
	// Measurements counts simulator invocations (not cache hits), the
	// analogue of on-device measurements the paper's search cost tracks.
	Measurements int

	// Stream-building scratch; see stageStreams and applyExtraOverhead.
	streamBuf     []gpusim.Stream
	streamKernels [][]gpusim.Kernel
	ovhStreams    []gpusim.Stream
	ovhKernels    []gpusim.Kernel
}

// lowering is one node's entry in the lowering table: the node it was made
// from (Node.ID is unique within one graph only), its kernel sequence and,
// with a measurement cache attached, the kernels' ids in that cache's
// dictionary, encoded as a stage key strings them together. keyed is false
// with no cache attached and when the dictionary could not take one of the
// kernels; a stage holding such a node is measured without the cache.
// solo, once timed, is the node's single-stream duration (its kernels run
// back-to-back, alone on the device): kernels on one stream do not interact
// in the simulator, so a serial chain's latency is exactly the sum of its
// nodes' solo durations.
type lowering struct {
	node    *graph.Node
	kernels []gpusim.Kernel
	ids     []byte
	keyed   bool
	timed   bool
	solo    float64
	idsBuf  [8]byte // what ids points into, for all but outsize ids: no second allocation
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
	return &Profiler{backend: b, opts: opts}
}

// Spec returns the device spec being profiled.
func (p *Profiler) Spec() gpusim.Spec { return p.backend.Spec() }

// Backend returns the measurement backend in use.
func (p *Profiler) Backend() Backend { return p.backend }

// Options returns the lowering options in use.
func (p *Profiler) Options() Options { return p.opts }

// SetMeasureCache attaches a shared structural measurement cache: every
// simulator invocation first consults (and on a miss fills) c, keyed by
// which kernels run on which stream on this profiler's device model — the
// id form of the stage's measurement key (see package measure). Cached values are exact simulator outputs, so results are
// bit-identical with or without the cache — only Measurements drops. The
// cache is concurrency-safe and survives this profiler: share one
// instance across profilers, searches, and servers to amortize repeated
// structure (nil detaches). Forks inherit the cache. Ids are relative to
// one cache, so attaching another drops the lowering table.
func (p *Profiler) SetMeasureCache(c *measure.Cache) {
	if c == p.mcache {
		return
	}
	p.mcache, p.ctxID, p.sigIDs = c, nil, nil
	p.table, p.owned = nil, false
	if c == nil {
		return
	}
	if id, ok := c.ContextID(p.Context()); ok {
		p.ctxID = binary.AppendUvarint(nil, uint64(id))
	}
}

// Context returns the long-form measurement context, built on first use:
// the backend spec and lowering options are fixed per profiler, so the
// bytes are immutable (read-only to callers) and shared with forks.
func (p *Profiler) Context() []byte {
	if p.ctxKey == nil {
		p.ctxKey = measure.Context(p.backend.Spec(), p.opts.ExtraLaunchOverhead)
	}
	return p.ctxKey
}

// Fork returns an independent profiler with the same device and options
// but its own simulator and scratch, so searches can run on separate
// goroutines. The lowering table is shared copy-on-write: a fork costs the
// same whatever the table holds, never re-lowers a node the parent (or a
// Prelower call) has already processed, and what either side lowers
// afterwards the other does not see. Measurement counts accumulate per
// fork; callers sum them.
//
// Fork synchronizes with concurrent Fork calls but not with in-flight
// measurements on the same profiler; quiesce the parent before forking.
func (p *Profiler) Fork() *Profiler {
	p.mu.Lock()
	p.owned = false
	table := p.table
	// Fork the backend under the same lock: concurrent Profiler.Fork calls
	// are allowed, so a Backend's Fork need only be safe against the
	// profiler's documented discipline (no concurrent Run on the parent).
	backend := p.backend.Fork()
	p.mu.Unlock()
	// The forked backend carries the parent's spec verbatim, including any
	// LaunchOverheadScale adjustment: NewWithOptions would apply it twice.
	return &Profiler{backend: backend, opts: p.opts, mcache: p.mcache,
		ctxKey: p.ctxKey, ctxID: p.ctxID, table: table}
}

// Prelower computes the lowering and solo duration of every given node, so
// subsequent forks share the full table instead of re-lowering per
// goroutine. Solo durations that are not yet known cost one simulator
// invocation each (counted in Measurements, exactly as lazy computation
// would have been).
func (p *Profiler) Prelower(nodes []*graph.Node) {
	for _, n := range nodes {
		p.SoloDuration(n)
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

// find returns the node's entry in the lowering table; nil when it holds
// none, or one made from another graph's node of the same ID.
func (p *Profiler) find(n *graph.Node) *lowering {
	if n.ID < len(p.table) {
		if ln := p.table[n.ID]; ln != nil && ln.node == n {
			return ln
		}
	}
	return nil
}

// lowered returns the node's entry in the lowering table, made if need be.
func (p *Profiler) lowered(n *graph.Node) *lowering {
	ln := p.find(n)
	if ln == nil {
		ln = p.lower(n)
		p.store(ln)
	}
	return ln
}

// lower builds a node's lowering — the one call of LowerNode — resolving
// its kernels' ids on the way. The entry is the caller's until stored.
func (p *Profiler) lower(n *graph.Node) *lowering {
	ln := &lowering{node: n, kernels: LowerNode(n, p.opts), keyed: p.ctxID != nil}
	ln.ids = ln.idsBuf[:0]
	for i := 0; ln.keyed && i < len(ln.kernels); i++ {
		id, ok := p.mcache.KernelID(measure.SignatureOf(&ln.kernels[i]))
		ln.ids, ln.keyed = binary.AppendUvarint(ln.ids, uint64(id)), ok
	}
	return ln
}

// store puts a finished entry in its node's slot, first cloning a table
// shared with a parent or forks so that nobody writes where another reads.
func (p *Profiler) store(ln *lowering) {
	p.mu.Lock()
	if !p.owned {
		p.table, p.owned = slices.Clone(p.table), true
	}
	p.mu.Unlock()
	if short := ln.node.ID + 1 - len(p.table); short > 0 {
		p.table = append(p.table, make([]*lowering, short)...)
	}
	p.table[ln.node.ID] = ln
}

// Kernels returns the node's kernel sequence in the lowering table, read-only.
func (p *Profiler) Kernels(n *graph.Node) []gpusim.Kernel { return p.lowered(n).kernels }

// KernelIDs returns the encoded ids of the node's kernels in the attached
// measurement cache's dictionary, the bytes a concurrent stage's key strings
// together for it, read-only; ok is false when the node's stages are not
// keyed (no cache attached, or no room in its dictionary). It allocates
// nothing for a node already in the lowering table.
func (p *Profiler) KernelIDs(n *graph.Node) (ids []byte, ok bool) {
	ln := p.lowered(n)
	return ln.ids, ln.keyed
}

// setCount writes n as the uvarint whose first byte was reserved at
// key[at], making room when it needs more.
func setCount(key []byte, at, n int) []byte {
	var b [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(b[:], uint64(n))
	key[at] = b[0]
	return slices.Insert(key, at+1, b[1:w]...)
}

// fused returns a merge stage's fused kernels, which exist only for the
// call (kernel fusion builds new kernels by nature); nil for any other.
func (p *Profiler) fused(st schedule.Stage) ([]gpusim.Kernel, error) {
	if st.Strategy != schedule.Merge {
		return nil, nil
	}
	return MergedKernels(st.Ops(), p.opts)
}

// stageKey assembles, in scratch valid until the next keyed measurement,
// the id key of a canonically ordered stage and its fused kernels (see
// fused): the context id, the stream count, and per stream its kernel count
// and kernel ids — strung together from the bytes lower stored, without
// touching a kernel. It returns nil for a stage that cannot be keyed (no
// cache attached, or no room in its dictionary for a signature) and for
// one with no kernels at all.
func (p *Profiler) stageKey(st schedule.Stage, fused []gpusim.Kernel) []byte {
	if p.ctxID == nil {
		return nil
	}
	if st.Strategy == schedule.Merge {
		return p.mergedKey(fused)
	}
	key := append(p.keyBuf[:0], p.ctxID...)
	streamsAt, streams := len(key), 0
	key = append(key, 0)
	for _, grp := range st.Groups {
		kernelsAt, kernels := len(key), 0
		key = append(key, 0)
		for _, n := range grp {
			ln := p.lowered(n)
			if !ln.keyed {
				return nil
			}
			kernels += len(ln.kernels)
			key = append(key, ln.ids...)
		}
		if kernels == 0 {
			key = key[:kernelsAt] // a group of free ops launches no stream
			continue
		}
		key = setCount(key, kernelsAt, kernels)
		streams++
	}
	p.keyBuf = key
	if streams == 0 {
		return nil
	}
	p.keyBuf = setCount(key, streamsAt, streams)
	return p.keyBuf
}

// streamKey is the id key of one stream of n kernels with the given
// encoded ids.
func (p *Profiler) streamKey(n int, ids []byte) []byte {
	p.keyBuf = append(p.keyBuf[:0], p.ctxID...)
	p.keyBuf = append(p.keyBuf, 1)
	p.keyBuf = binary.AppendUvarint(p.keyBuf, uint64(n))
	p.keyBuf = append(p.keyBuf, ids...)
	return p.keyBuf
}

// mergedKey is the id key of a merge stage's fused kernels, which exist
// only for the call: their ids come through sigIDs, not a lowering table.
func (p *Profiler) mergedKey(kernels []gpusim.Kernel) []byte {
	ids := p.idBuf[:0]
	for i := range kernels {
		s := measure.SignatureOf(&kernels[i])
		id, ok := p.sigIDs[s]
		if !ok {
			if id, ok = p.mcache.KernelID(s); !ok {
				return nil
			}
			if p.sigIDs == nil {
				p.sigIDs = make(map[measure.Signature]uint32)
			}
			p.sigIDs[s] = id
		}
		ids = binary.AppendUvarint(ids, uint64(id))
	}
	p.idBuf = ids
	return p.streamKey(len(kernels), ids)
}

// stageStreams lowers a stage with its fused kernels (see fused) into the
// profiler's reusable stream scratch. The result is valid until the next
// call; callers must not retain it.
func (p *Profiler) stageStreams(st schedule.Stage, fused []gpusim.Kernel) []gpusim.Stream {
	if st.Strategy == schedule.Merge {
		p.streamBuf = append(p.streamBuf[:0], fused)
		return p.streamBuf
	}
	streams := p.streamBuf[:0]
	used := 0
	for _, grp := range st.Groups {
		if used == len(p.streamKernels) {
			p.streamKernels = append(p.streamKernels, nil)
		}
		s := p.streamKernels[used][:0]
		for _, n := range grp {
			s = append(s, p.lowered(n).kernels...)
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
		return nil
	}
	return streams
}

// stageStreamsPooled is stageStreams for a caller that keys nothing.
func (p *Profiler) stageStreamsPooled(st schedule.Stage) ([]gpusim.Stream, error) {
	fused, err := p.fused(st)
	if err != nil {
		return nil, err
	}
	return p.stageStreams(st, fused), nil
}

// MeasureStage returns the latency of one stage in seconds, including the
// stage synchronization barrier. Structurally identical stages — whatever
// their node identity or group order — run the same kernels on the same
// streams and so measure identically; with a measure.Cache attached the
// stage is looked up under those kernels' ids and the repeats are free:
// only a miss lowers the stage into stream programs (per-profiler scratch;
// the simulator does not retain them) and runs the backend.
func (p *Profiler) MeasureStage(st schedule.Stage) (float64, error) {
	st = canonicalStage(st)
	fused, err := p.fused(st)
	if err != nil {
		return 0, err
	}
	lat, claim, hit := p.lookup(p.stageKey(st, fused))
	if !hit {
		lat = p.fill(claim, p.stageStreams(st, fused))
	}
	return p.backend.Spec().StageSync + lat, nil
}

// lookup consults the attached cache under an id key; a nil key (no
// cache, or a stage that cannot be keyed) is a miss without a claim. On a
// miss the caller passes the claim on to fill. Concurrent misses for one
// key — e.g. two DP workers reaching the same repeated cell structure —
// coalesce into a single simulation.
func (p *Profiler) lookup(key []byte) (lat float64, claim *measure.Claim, hit bool) {
	if key == nil {
		return 0, nil, false
	}
	// A nil done channel: measurements take microseconds, so a coalesced
	// waiter is never worth cancelling.
	lat, claim, _ = p.mcache.GetOrBegin(nil, key)
	return lat, claim, claim == nil
}

// fill executes stream programs on the backend, with framework dispatch
// overhead applied, and publishes the latency under the claim, if any.
// It counts one measurement — also for no programs at all, a stage of
// only free ops, as it always has.
func (p *Profiler) fill(claim *measure.Claim, streams []gpusim.Stream) float64 {
	p.Measurements++
	if len(streams) == 0 {
		return 0
	}
	if claim != nil {
		// A panicking backend (gpusim rejects invalid kernels by panic)
		// must not leave the claimed key locked forever for every future
		// requester of a shared cache: abandon the claim so waiters retry
		// and the key stays measurable.
		defer func() {
			if claim != nil {
				claim.Abandon()
			}
		}()
	}
	lat := p.backend.Run(p.applyExtraOverhead(streams)).Latency
	if claim != nil {
		claim.Commit(lat)
		claim = nil
	}
	return lat
}

// applyExtraOverhead returns the programs with every kernel's Bytes grown
// by overhead × bandwidth, so each kernel runs exactly the framework's
// per-kernel dispatch time longer on its own stream. The result lives in
// profiler scratch, valid until the next call.
func (p *Profiler) applyExtraOverhead(streams []gpusim.Stream) []gpusim.Stream {
	if p.opts.ExtraLaunchOverhead <= 0 {
		return streams
	}
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	// Grown once, so the streams sliced out of it below stay put.
	kernels := slices.Grow(p.ovhKernels[:0], n)
	out := p.ovhStreams[:0]
	for _, s := range streams {
		start := len(kernels)
		for _, k := range s {
			k.Bytes += p.opts.ExtraLaunchOverhead * p.backend.Spec().MemBandwidth
			kernels = append(kernels, k)
		}
		out = append(out, gpusim.Stream(kernels[start:len(kernels):len(kernels)]))
	}
	p.ovhKernels, p.ovhStreams = kernels, out
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
	ln := p.find(n)
	switch {
	case ln == nil:
		ln = p.lower(n)
	case ln.timed:
		return ln.solo
	default:
		// Lowered by a stage measurement: stored entries are immutable, so
		// the duration goes into a copy that takes the slot.
		timed := *ln
		ln = &timed
	}
	if len(ln.kernels) > 0 {
		// Through the shared structural cache, which dedups solo
		// simulations of structurally identical nodes (repeated cells)
		// across blocks, forks, and searches.
		var key []byte
		if ln.keyed {
			key = p.streamKey(len(ln.kernels), ln.ids)
		}
		lat, claim, hit := p.lookup(key)
		if !hit {
			p.streamBuf = append(p.streamBuf[:0], ln.kernels)
			lat = p.fill(claim, p.streamBuf)
		}
		ln.solo = lat
	}
	ln.timed = true
	p.store(ln)
	return ln.solo
}

// CanBound reports whether stage latencies have cheap lower bounds: a
// concurrent stage measures at least the stage barrier plus, over its groups,
// the longest sum of the group's SoloDurations, and a merge stage at least
// its MergeLowerBound — both up to float rounding, which callers allow for.
// That is a property of the simulator's fluid model, where a co-running
// kernel never gets more SMs, resident warps or bandwidth than it gets alone
// and no kernel outruns the device's peak FLOP/s or bandwidth, so it holds
// for SimBackend only: of any other Backend nothing is known.
func (p *Profiler) CanBound() bool {
	_, ok := p.backend.(*simBackend)
	return ok
}

// MergeLowerBound returns the roofline of the merge stage of ops, or false
// when they cannot merge: the stage barrier plus, per fused kernel, its
// launch and the longer of its FLOPs at peak and its bytes — framework
// dispatch included, as applyExtraOverhead adds it — at full bandwidth. It
// builds no kernel slice and allocates nothing; see CanBound for when it
// bounds MeasureStage.
func (p *Profiler) MergeLowerBound(ops []*graph.Node) (float64, bool) {
	ks, n, ok := mergedKernels(ops, p.opts)
	if !ok {
		return 0, false
	}
	spec := p.backend.Spec()
	lb := spec.StageSync
	for _, k := range ks[:n] {
		bytes := k.Bytes
		if p.opts.ExtraLaunchOverhead > 0 {
			bytes += p.opts.ExtraLaunchOverhead * spec.MemBandwidth
		}
		lb += spec.KernelLaunch + max(k.FLOPs/spec.PeakFLOPs, bytes/spec.MemBandwidth)
	}
	return lb, true
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
	total, err := p.record(s, sim, func(_ float64, res gpusim.Result) {
		if res.Trace != nil {
			full.Append(res.Trace)
		}
		full.AppendIdle(sim.Spec().StageSync)
	})
	if err != nil {
		return 0, nil, err
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
	total, err := p.record(s, sim, func(start float64, res gpusim.Result) {
		full = append(full, res.Timeline.Shift(start)...)
	})
	if err != nil {
		return 0, nil, err
	}
	return total, full, nil
}

// record runs every stage of s once on sim, a fresh recording simulator,
// and returns the end-to-end latency. Each stage is handed to stage with
// its start time and its run's result — the zero Result for a stage of
// only free ops, which runs nothing but still pays the barrier.
func (p *Profiler) record(s *schedule.Schedule, sim *gpusim.Sim, stage func(start float64, res gpusim.Result)) (float64, error) {
	var total float64
	for _, st := range s.Stages {
		streams, err := p.stageStreamsPooled(st)
		if err != nil {
			return 0, err
		}
		var res gpusim.Result
		if len(streams) > 0 {
			res = sim.Run(p.applyExtraOverhead(streams))
		}
		stage(total, res)
		total += res.Latency
		total += sim.Spec().StageSync
	}
	return total, nil
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
	lat, err := p.MeasureStage(st)
	if err != nil {
		return StageProfile{}, err
	}
	prof := StageProfile{Latency: lat, GFLOPs: flops / 1e9}
	if lat > 0 {
		prof.TFLOPSs = flops / lat / 1e12
		prof.Utilization = flops / lat / p.backend.Spec().PeakFLOPs
	}
	return prof, nil
}
