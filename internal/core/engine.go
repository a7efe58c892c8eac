package core

// The level-synchronous bottom-up DP engine. The original implementation
// of Algorithm 1 (kept as the oracle in dp_reference.go) is a memoized
// top-down recursion: single-threaded, copying the ending enumerator's
// component list on every branch, and re-deriving each ending's group
// structure with a BFS. This engine computes the identical dynamic program
// keeping, like Algorithm 1 itself, memory in the number of *states*
// (cost[S], choice[S]) and of distinct endings (the stage memo) — never in
// the number of transitions:
//
//  1. Discovery (top-down, by decreasing cardinality, serial): a single
//     sink of S is always an admissible ending — one group of one
//     operator, and every pruning bound is ≥ 1 or unbounded; it is
//     feasible under every StrategySet too — so under every setting the
//     states the recursion reaches are exactly the block's order ideals,
//     and they are listed by peeling one sink at a time: a handful of
//     successors per state, no ending enumeration, no measurement.
//
//  2. Compute (bottom-up, by increasing cardinality): cost[S] depends
//     only on cost[S − S'] for non-empty endings S', i.e. on strictly
//     smaller levels, so all states of one level are independent and are
//     processed in parallel across a pool of workers. Each worker owns a
//     private simulator (its own profiler) and an ending enumerator,
//     and costs every (S, S') the moment the enumerator produces it —
//     the enumeration runs exactly once per state and nothing about a
//     transition is stored. Stage latencies are memoized in a sharded,
//     per-ending singleflight table of 16-byte pointer-free inline slots
//     (ending, latency word — published with one store), so every
//     distinct ending is measured exactly once regardless of which
//     workers race to it, from the enumerator's own incrementally tracked
//     component list.
//
// Memo, state tables and workers belong to whoever searches blocks, not to the
// block: an engine empties the scratch it is handed and leaves it grown.
//
// Equivalence with the reference recursion is bit-exact (asserted by
// property tests and the zoo equivalence test): per state, candidates are
// evaluated in the same order (serial tail first, then endings in
// enumeration order) with the same strictly-less comparison, stage
// latencies are measured from identically ordered groups, and the
// serial-tail sum accumulates per-node solo durations in the same order —
// so costs, choices, schedules, and the States/Transitions/Measurements
// statistics all coincide for any worker count.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"ios/internal/bitset"
	"ios/internal/graph"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// stageShardCount is the maximum shard count of the per-ending stage
// memo; the engine uses enough shards to keep lock contention negligible
// at its worker count (one for a serial engine: a small block clears one).
const stageShardCount = 64

// stageSlot memoizes GENERATESTAGE for one ending within a block, inline
// in its shard's open-addressing table, as two words: the ending is the
// key (0 marks a free slot — endings are non-empty) and val the measured
// latency's bits. A latency is ≥ 0 and finite (engineWorker.measure makes
// anything else an error), which leaves the sign bit to say the stage runs
// merged and the non-finite patterns to say there is no latency. A worker
// claims a slot by storing stageInFlight, then key, under the shard lock
// and publishes with one store of val, so the lock-free fast path holds a
// complete record whenever it reads anything else. No pointers: the
// collector never scans the memo, and four slots share a cache line.
type stageSlot struct {
	key atomic.Uint64
	val atomic.Uint64
}

// stageSlot.val words that are not a latency's bits. 0 is one — 0.0, run
// concurrently — so being in flight needs a pattern of its own.
const (
	stageMerge      uint64 = 1 << 63            // set on a latency: schedule.Merge rather than schedule.Concurrent
	stageInfeasible uint64 = 0x7ff0000000000000 // +Inf: no strategy of the configured StrategySet applies
	stageFailed     uint64 = 0x7ff8000000000001 // measurement error (the search is stopping)
	stageInFlight   uint64 = 0x7ff8000000000002 // claimed, not yet published
)

// stageWord encodes a measured stage for publication.
func stageWord(lat float64, merge bool) uint64 {
	if merge {
		return math.Float64bits(lat) | stageMerge
	}
	return math.Float64bits(lat)
}

// stageLatency decodes a published word; !ok: stageInfeasible or stageFailed.
func stageLatency(v uint64) (lat float64, merge, ok bool) {
	bits := v &^ stageMerge
	return math.Float64frombits(bits), v != bits, bits < stageInfeasible
}

// stageTable is one immutable-size generation of a shard's table; growth
// builds the next generation and publishes it whole.
type stageTable struct {
	slots []stageSlot
	shift uint8 // 64 - log2(len(slots))
}

func newStageTable(log2 uint8) *stageTable {
	return &stageTable{slots: make([]stageSlot, 1<<log2), shift: 64 - log2}
}

// probe returns the slot holding k (true), or the free slot where k
// belongs (false). h is hashKey(k).
func (t *stageTable) probe(k, h uint64) (*stageSlot, bool) {
	mask := len(t.slots) - 1
	for i := int(h >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch s.key.Load() {
		case k:
			return s, true
		case 0:
			return s, false
		}
	}
}

// stageShard is one shard of the per-ending stage memo. Lookups of
// published slots take no lock: they probe whichever table generation tab
// holds, and anything they cannot settle there (a free or in-flight slot,
// possibly stale after a growth) falls through to the locked slow path.
// All writes — claims, publications, growth — happen under mu on the
// current generation; wake is broadcast after every publication. A shard
// outlives the block: scratch.acquire empties it for the next one.
type stageShard struct {
	mu   sync.Mutex
	wake sync.Cond
	tab  atomic.Pointer[stageTable]
	used int
}

// claim returns k's slot in the current generation, inserting it (in
// flight) when absent. Caller holds sh.mu.
func (sh *stageShard) claim(k, h uint64) (s *stageSlot, inserted bool) {
	t := sh.tab.Load()
	s, found := t.probe(k, h)
	if found {
		return s, false
	}
	if 2*(sh.used+1) > len(t.slots) {
		next := newStageTable(64 - t.shift + 1)
		for i := range t.slots {
			old := &t.slots[i]
			if key := old.key.Load(); key != 0 {
				n, _ := next.probe(key, hashKey(key))
				n.val.Store(old.val.Load())
				n.key.Store(key)
			}
		}
		sh.tab.Store(next)
		s, _ = next.probe(k, h)
	}
	s.val.Store(stageInFlight)
	s.key.Store(k)
	sh.used++
	return s, true
}

// setTable is an open-addressing hash table from bitmask to int32, the
// engine's replacement for map[bitset.Set]int32 on the per-transition
// state-index lookup (it runs millions of times per block; Go's map is
// several times slower than two or three linear probes). Key and value
// share a slot so a probe touches one cache line. Keys are non-empty sets,
// so 0 marks a free slot. The hash is the splitmix64 finalizer: block
// bitmasks are highly structured (order ideals share long runs of bits),
// and weaker multiplicative hashes cluster badly enough on them to
// dominate the whole search.
type setTable struct {
	slots []setSlot
	used  int
	shift uint8 // 64 - log2(len(slots))
}

type setSlot struct {
	k uint64
	v int32
}

// hashKey is the splitmix64 finalizer (full avalanche in ~5 ops).
func hashKey(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func (t *setTable) get(k bitset.Set) (int32, bool) {
	mask := len(t.slots) - 1
	for i := int(hashKey(uint64(k)) >> t.shift); ; i = (i + 1) & mask {
		switch t.slots[i].k {
		case uint64(k):
			return t.slots[i].v, true
		case 0:
			return 0, false
		}
	}
}

func (t *setTable) put(k bitset.Set, v int32) {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := int(hashKey(uint64(k)) >> t.shift); ; i = (i + 1) & mask {
		switch t.slots[i].k {
		case 0:
			t.slots[i] = setSlot{k: uint64(k), v: v}
			t.used++
			return
		case uint64(k):
			t.slots[i].v = v
			return
		}
	}
}

func (t *setTable) grow() {
	old := t.slots
	t.slots = make([]setSlot, 2*len(old))
	t.shift--
	t.used = 0
	for _, s := range old {
		if s.k != 0 {
			t.put(bitset.Set(s.k), s.v)
		}
	}
}

// scratch is the working memory of block searches, owned by the goroutine
// that searches blocks and reused from block to block at the size the
// previous ones grew it to: a graph's blocks grow these tables once per
// searcher, not once each. newEngine empties it at acquisition, never at
// release — a failed or cancelled search leaves failed slots and half a
// level of cost/last behind, and nothing reads a scratch between engines.
// There is one memo per shard count in use (serial: one shard; parallel:
// 4 × workers), so a small serial block never clears the tables a large
// parallel one grew. What a block does clear is cheap beside the search
// that dirtied it: 16 bytes per slot at memclr speed, at most four slots
// per ending, each of which cost at least a stage measurement — under 1 %.
type scratch struct {
	memos  [7][]stageShard // by log2(shard count); stageShardCount = 1 << 6
	shards []stageShard    // the memo in use

	// The state space, listed by pass 1: states[i] is the bitmask of state
	// i, index its inverse, levels[k] the states of cardinality k; all
	// read-only during pass 2. cost and last are indexed like states, each
	// slot written lock-free by the one worker that owns the state.
	index  setTable
	states []bitset.Set
	levels [][]int32
	cost   []float64
	last   []choice

	// solo[i] is the solo duration of the block's operator i; workers is the
	// pool, of which newEngine re-points as many as the block takes.
	solo    []float64
	workers []*engineWorker
}

// acquire empties the scratch for a block of n operators and a memo of the
// given power-of-two shard count. No search is using it, so the plain clear
// of atomic slots is ordered before every later access.
func (sc *scratch) acquire(n, shards int) {
	memo := &sc.memos[bits.TrailingZeros(uint(shards))]
	if *memo == nil {
		*memo = make([]stageShard, shards)
	}
	sc.shards = *memo
	for i := range sc.shards {
		sh := &sc.shards[i]
		if sh.wake.L == nil {
			sh.wake.L = &sh.mu
			sh.tab.Store(newStageTable(4))
		}
		clear(sh.tab.Load().slots)
		sh.used = 0
	}
	if sc.index.slots == nil {
		sc.index.slots, sc.index.shift = make([]setSlot, 128), 64-7
	}
	clear(sc.index.slots)
	sc.index.used = 0
	sc.states = sc.states[:0]
	for len(sc.levels) <= n {
		sc.levels = append(sc.levels, nil)
	}
	for k := range sc.levels {
		sc.levels[k] = sc.levels[k][:0]
	}
}

// engine carries the DP state for one block search.
type engine struct {
	b    *graph.Block
	opts Options

	// stageSync and scratch.solo feed the allocation-free serial-tail
	// candidate: a serial chain's latency is the stage barrier plus the sum
	// of its nodes' solo durations (see Profiler.MeasureSerialChain).
	stageSync float64

	*scratch // the stage memo, the state space and its cost tables, the pool

	workers []*engineWorker // of scratch.workers, those this block takes
	// stop is set on the first error or on context cancellation (via a
	// context.AfterFunc registered in run); workers check it before every
	// state and every transition, so in-flight levels drain promptly —
	// each worker finishes at most the stage measurement it is in.
	stop  atomic.Bool
	stats Stats

	// Progress plumbing: prog aggregates across blocks (nil = no
	// reporting), prev* hold this engine's last reported cumulative
	// counters so level barriers emit deltas.
	prog                            *progressTracker
	prevStates, prevTrans, prevMeas int
}

// engineWorker is the per-goroutine state of one pool worker; it outlives
// the block, whose own e, prof, stats and err are: newEngine sets them.
type engineWorker struct {
	e     *engine
	prof  *profile.Profiler
	enum  enumerator
	stats Stats
	err   error
	// The state being computed and its running minimum. They live here, and
	// onEnding is the visit method bound once, so that handing the
	// enumerator its callback allocates no closure per state.
	s          bitset.Set
	best       float64
	bestChoice choice
	onEnding   endingFunc
	// Fixed-capacity (bitset.MaxElems) measurement scratch for stage setup
	// in measureStage.
	groupSets  [bitset.MaxElems]bitset.Set
	stageNodes [bitset.MaxElems]*graph.Node
	groupArena [bitset.MaxElems]*graph.Node
	groupLists [bitset.MaxElems][]*graph.Node
}

// smallBlockOps is the parallel-dispatch threshold: blocks at or below
// this operator count always run single-worker. A tiny block's whole
// search costs less than the engine's parallel setup (worker forks with
// private simulators, extra memo shards), which PERF.md measured as a
// ~0.9× regression on SqueezeNet; a serial engine skips all of it — no
// fork (worker 0 drives the profiler the engine was handed), one shard,
// inline level loops. Results are bit-identical at every worker count, so
// this is purely an execution heuristic.
const smallBlockOps = 8

// newEngine builds the engine over sc, which it empties, and points sc's
// worker pool at the block: the passed profiler lowers the block's nodes and
// times their solo durations (counted on it, exactly as lazy computation
// would have been), worker 0 drives it and every other worker a fork of it,
// sharing that table — so a serial engine forks nothing.
func newEngine(b *graph.Block, prof *profile.Profiler, opts Options, sc *scratch) *engine {
	e := &engine{b: b, opts: opts, prog: opts.tracker, scratch: sc, prevMeas: prof.Measurements}
	workers := opts.effectiveWorkers()
	// A block can never keep more workers busy than it has operators, and
	// a graph search may run GOMAXPROCS blocks concurrently — capping by
	// block size keeps the fork fan-out proportional to real work.
	if n := len(b.Nodes); workers > n {
		workers = n
	}
	if len(b.Nodes) <= smallBlockOps {
		workers = 1
	}
	e.stageSync = prof.Spec().StageSync
	sc.solo = sc.solo[:0]
	for _, n := range b.Nodes {
		sc.solo = append(sc.solo, prof.SoloDuration(n))
	}
	shards := 1
	if workers > 1 {
		for shards < 4*workers && shards < stageShardCount {
			shards <<= 1
		}
	}
	sc.acquire(len(b.Nodes), shards)
	for len(sc.workers) < workers {
		w := new(engineWorker)
		w.onEnding = w.visit
		sc.workers = append(sc.workers, w)
	}
	e.workers = sc.workers[:workers]
	for i, w := range e.workers {
		w.e, w.prof, w.stats, w.err = e, prof, Stats{}, nil
		if i > 0 {
			w.prof = prof.Fork()
		}
	}
	return e
}

// close folds the forked workers' measurement counts back into the
// profiler the engine was built from, so a caller tracking search cost
// through it sees the totals a single-threaded search would have produced.
// Call once, after all workers are quiescent.
func (e *engine) close() {
	for _, w := range e.workers[1:] {
		e.workers[0].prof.Measurements += w.prof.Measurements
	}
}

// run executes both passes and reconstructs the block's stage list. The
// context is observed through the engine's stop flag — an AfterFunc flips
// it the moment ctx is cancelled, so every worker drains at its next
// transition — and re-checked at each level barrier, where the wrapped
// ctx.Err() is returned and all partial DP state is discarded.
func (e *engine) run(ctx context.Context) ([]schedule.Stage, Stats, error) {
	unregister := context.AfterFunc(ctx, func() { e.stop.Store(true) })
	defer unregister()
	if err := e.discover(ctx); err != nil {
		return nil, e.stats, err
	}
	if err := e.compute(ctx); err != nil {
		return nil, e.stats, err
	}
	stages, err := e.reconstruct()
	return stages, e.stats, err
}

// ctxErr returns the wrapped context error if the context is done.
func (e *engine) ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return wrapCancelled(err)
	}
	return nil
}

// reportLevel emits a progress snapshot at a level barrier: the delta of
// this engine's cumulative state/transition/measurement counters since
// the previous barrier, folded into the cross-block tracker. Workers are
// quiescent at a barrier, so their counters are safe to read. (Discovery
// costs nothing, so its snapshots carry zero deltas: they mark time.)
func (e *engine) reportLevel(phase string, level int) {
	if e.prog == nil {
		return
	}
	var s, tr, m int
	for _, w := range e.workers {
		s += w.stats.States
		tr += w.stats.Transitions
		m += w.prof.Measurements
	}
	e.prog.emit(e.b.Index+1, len(e.b.Nodes), phase, level,
		s-e.prevStates, tr-e.prevTrans, m-e.prevMeas)
	e.prevStates, e.prevTrans, e.prevMeas = s, tr, m
}

// discover runs pass 1: list the block's order ideals by decreasing
// cardinality. Removing one sink (an operator with no successor left in S)
// from an ideal yields an ideal one smaller, and every smaller ideal is
// reached that way, so each level is the set of one-sink remainders of the
// level above. Serial: the whole pass is O(states × block size) word
// operations. Cancellation is checked at every level.
func (e *engine) discover(ctx context.Context) error {
	e.addState(e.b.All())
	for k := len(e.b.Nodes); k >= 1; k-- {
		if err := e.ctxErr(ctx); err != nil {
			return err
		}
		for _, id := range e.levels[k] {
			s := e.states[id]
			for i := s.NextAfter(-1); i >= 0; i = s.NextAfter(i) {
				if e.b.Succs(i).Intersects(s) {
					continue // not a sink of s
				}
				if rem := s.Remove(i); !rem.IsEmpty() {
					e.addState(rem)
				}
			}
		}
		e.reportLevel("discover", k)
	}
	// Resized and zeroed in place: an earlier block's choices are not ours.
	e.cost = append(e.cost[:0], make([]float64, len(e.states))...)
	e.last = append(e.last[:0], make([]choice, len(e.states))...)
	return nil
}

// addState registers a state if unseen.
func (e *engine) addState(s bitset.Set) {
	if _, ok := e.index.get(s); ok {
		return
	}
	id := int32(len(e.states))
	e.index.put(s, id)
	e.states = append(e.states, s)
	e.levels[s.Len()] = append(e.levels[s.Len()], id)
}

// compute runs pass 2: evaluate cost[S] level by level, bottom-up.
// Cancellation is checked at every level barrier; a cancelled engine
// discards its cost/choice tables by never reaching reconstruct.
func (e *engine) compute(ctx context.Context) error {
	for k := 1; k <= len(e.b.Nodes); k++ {
		if err := e.ctxErr(ctx); err != nil {
			return err
		}
		e.runLevel(e.levels[k])
		// The context check precedes the worker-error check so a search
		// cancelled mid-measurement reports the cancellation, not
		// whatever partial state a draining worker happened to record.
		if err := e.ctxErr(ctx); err != nil {
			return err
		}
		for _, w := range e.workers {
			if w.err != nil {
				return w.err
			}
		}
		e.reportLevel("compute", k)
	}
	for _, w := range e.workers {
		e.stats.States += w.stats.States
		e.stats.Transitions += w.stats.Transitions
	}
	return nil
}

// runLevel computes every state of one level, fanned out across the
// worker pool with an atomic work-stealing cursor. A single-worker engine
// runs inline: no goroutines, no atomics, so Workers=1 is a strictly
// cheaper replacement for the reference recursion.
func (e *engine) runLevel(items []int32) {
	if len(e.workers) == 1 || len(items) == 1 {
		w := e.workers[0]
		for _, id := range items {
			if e.stop.Load() {
				return
			}
			w.computeState(id)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *engineWorker) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(items)) || e.stop.Load() {
					return
				}
				w.computeState(items[i])
			}
		}(w)
	}
	wg.Wait()
}

// computeState evaluates Algorithm 1's SCHEDULER for one state: the
// serial-tail candidate first, then every admissible ending in
// enumeration order, exactly as the reference recursion does.
func (w *engineWorker) computeState(id int32) {
	e := w.e
	w.s = e.states[id]
	w.stats.States++

	// Serial-tail candidate: close the whole remaining suffix as one
	// stage whose single group runs every operator back-to-back on one
	// stream. The pruning strategy caps the size of *parallel* groups
	// (Section 4.3); a pure serial chain involves no inter-operator
	// parallelism, so admitting it at any length only restores schedules
	// the unpruned space already contains (in particular, the stream-
	// sequential schedule, which IOS must never lose to).
	w.stats.Transitions++
	w.best = w.serialLatency(w.s)
	w.bestChoice = choice{ending: w.s, strategy: schedule.Concurrent, serial: true}

	w.enum.forEach(e.b, w.s, e.opts.Pruning, w.onEnding)
	// Every way visit cuts an enumeration short sets stop first, so a
	// state abandoned halfway never publishes a cost.
	if e.stop.Load() {
		return
	}
	e.cost[id] = w.best
	e.last[id] = w.bestChoice
}

// visit costs one transition (w.s, ending) the moment the enumerator
// produces it. comps is the enumerator's live component list; it is only
// read, and only when this worker turns out to be the one measuring the
// ending.
func (w *engineWorker) visit(ending bitset.Set, comps []bitset.Set) bool {
	e := w.e
	if e.stop.Load() {
		return false
	}
	w.stats.Transitions++
	v := e.stage(w, ending, comps)
	lat, merge, ok := stageLatency(v)
	if !ok {
		// Infeasible under the strategy restriction: skip. A failed
		// measurement has already set stop: give up on the state.
		return v == stageInfeasible
	}
	var sub float64
	if rem := w.s.Diff(ending); !rem.IsEmpty() {
		ci, ok := e.index.get(rem) // strictly lower level: complete
		if !ok {
			panic(fmt.Sprintf("core: remainder %v of state %v is not a listed state", rem, w.s))
		}
		sub = e.cost[ci]
	}
	if total := sub + lat; total < w.best {
		w.best = total
		w.bestChoice = choice{ending: ending, strategy: schedule.Concurrent}
		if merge {
			w.bestChoice.strategy = schedule.Merge
		}
	}
	return true
}

// serialLatency is the serial-tail candidate's latency: barrier plus the
// per-node solo durations, summed in topological order (bit-identical to
// Profiler.MeasureSerialChain, which the reference recursion calls).
func (w *engineWorker) serialLatency(s bitset.Set) float64 {
	e := w.e
	total := e.stageSync
	for i := s.NextAfter(-1); i >= 0; i = s.NextAfter(i) {
		total += e.solo[i]
	}
	return total
}

// stage returns the memoized word of an ending (see stageSlot), measuring
// it if this worker is the first to ask. The fast path — the ending is
// already published — takes no lock.
func (e *engine) stage(w *engineWorker, ending bitset.Set, comps []bitset.Set) uint64 {
	k := uint64(ending)
	h := hashKey(k)
	sh := &e.shards[h&uint64(len(e.shards)-1)]
	if s, found := sh.tab.Load().probe(k, h); found {
		if v := s.val.Load(); v != stageInFlight {
			return v
		}
	}

	// Slow path: claim the ending or wait for its claimant. The shard lock
	// is dropped while measuring, so the slot is found again afterwards —
	// the table may have grown a generation in between.
	sh.mu.Lock()
	s, inserted := sh.claim(k, h)
	if inserted {
		sh.mu.Unlock()
		v := e.measureStage(w, ending, comps)
		sh.mu.Lock()
		s, _ = sh.tab.Load().probe(k, h)
		s.val.Store(v)
		sh.mu.Unlock()
		sh.wake.Broadcast()
		return v
	}
	for s.val.Load() == stageInFlight {
		sh.wake.Wait()
		s, _ = sh.tab.Load().probe(k, h)
	}
	v := s.val.Load()
	sh.mu.Unlock()
	return v
}

// measureStage is Algorithm 1's GENERATESTAGE: choose the better
// parallelization strategy for the candidate stage and return the word its
// slot publishes (stageInfeasible when the configured StrategySet allows
// none, e.g. MergeOnly with unmergeable multi-op sets). comps, the
// enumerator's component list, is copied into worker scratch and
// canonicalized there (sorted by smallest element — the order groupsOf
// produces and reconstruct emits). The node lists handed to the measurement
// are built in the worker's fixed-capacity scratch — the simulator does not
// retain them — so measurement setup allocates nothing.
func (e *engine) measureStage(w *engineWorker, ending bitset.Set, comps []bitset.Set) uint64 {
	groups := w.groupSets[:copy(w.groupSets[:], comps)]
	sortGroups(groups)
	nodes := w.stageNodes[:0]
	for i := ending.NextAfter(-1); i >= 0; i = ending.NextAfter(i) {
		nodes = append(nodes, e.b.Nodes[i])
	}
	// Slice per-group node lists out of one fixed-capacity arena; the
	// capacity bound (bitset.MaxElems ≥ any block) guarantees no
	// relocation invalidates earlier sub-slices.
	flat := w.groupArena[:0]
	groupNodes := w.groupLists[:0]
	for _, gs := range groups {
		start := len(flat)
		for i := gs.NextAfter(-1); i >= 0; i = gs.NextAfter(i) {
			flat = append(flat, e.b.Nodes[i])
		}
		groupNodes = append(groupNodes, flat[start:len(flat):len(flat)])
	}

	// Under MergeOnly (the paper's IOS-Merge variant) stages may not use
	// inter-operator parallelism: a concurrent stage is admissible only
	// when it degenerates to a single sequential chain, which makes the
	// variant coincide with the sequential schedule on networks without
	// merge opportunities (Section 6.1's RandWire/NasNet observation).
	concurrentAllowed := e.opts.Strategies != MergeOnly || len(groups) == 1
	mergeAllowed := e.opts.Strategies != ParallelOnly && schedule.CanMerge(nodes)

	lConc, lMerge := math.Inf(1), math.Inf(1) // not allowed; both is stageInfeasible
	var err error
	if concurrentAllowed {
		lConc, err = w.measure(ending, schedule.Stage{Strategy: schedule.Concurrent, Groups: groupNodes})
	}
	if err == nil && mergeAllowed {
		lMerge, err = w.measure(ending, schedule.Stage{Strategy: schedule.Merge, Groups: [][]*graph.Node{nodes}})
	}
	if err != nil {
		w.err = err
		e.stop.Store(true) // before the slot is published: see computeState
		return stageFailed
	}
	return stageWord(math.Min(lConc, lMerge), lMerge < lConc)
}

// measure runs one stage measurement. A backend answering NaN, ±Inf or a
// negative latency has failed: its bits would read as merged or no latency.
func (w *engineWorker) measure(ending bitset.Set, st schedule.Stage) (float64, error) {
	lat, err := w.prof.MeasureStage(st)
	if err == nil && math.Float64bits(lat) >= stageInfeasible {
		err = fmt.Errorf("ending %v of block %d (%s): backend measured an invalid latency %v", ending, w.e.b.Index, st.Strategy, lat)
	}
	return lat, err
}

// reconstruct walks choice[] backwards from the full set (Algorithm 1
// L6-11), prepending stages.
func (e *engine) reconstruct() ([]schedule.Stage, error) {
	var rev []schedule.Stage
	for s := e.b.All(); !s.IsEmpty(); {
		id, ok := e.index.get(s)
		if !ok || e.last[id].ending.IsEmpty() {
			return nil, fmt.Errorf("no feasible schedule for state %v (over-restrictive strategy set?)", s)
		}
		c := e.last[id]
		rev = append(rev, e.buildStage(c))
		s = s.Diff(c.ending)
	}
	stages := make([]schedule.Stage, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		stages = append(stages, rev[i])
	}
	return stages, nil
}

// buildStage materializes a schedule stage from a DP choice. This runs
// once per emitted stage, with fresh slices (the schedule outlives the
// engine's scratch); a concurrent stage's groups are re-derived with
// groupsOf, in the canonical order the stage was measured with.
func (e *engine) buildStage(c choice) schedule.Stage {
	switch {
	case c.serial:
		// The serial tail is one single-group concurrent stage: every
		// operator issues back-to-back on one stream in topological order.
		return schedule.Stage{Strategy: schedule.Concurrent, Groups: [][]*graph.Node{e.nodesOf(c.ending)}}
	case c.strategy == schedule.Merge:
		return schedule.Stage{Strategy: schedule.Merge, Groups: [][]*graph.Node{e.nodesOf(c.ending)}}
	default:
		groups := groupsOf(e.b, c.ending)
		groupNodes := make([][]*graph.Node, len(groups))
		for gi, gs := range groups {
			groupNodes[gi] = e.nodesOf(gs)
		}
		return schedule.Stage{Strategy: schedule.Concurrent, Groups: groupNodes}
	}
}

// nodesOf converts a block-local bitset to nodes in topological order.
func (e *engine) nodesOf(s bitset.Set) []*graph.Node {
	nodes := make([]*graph.Node, 0, s.Len())
	for i := s.NextAfter(-1); i >= 0; i = s.NextAfter(i) {
		nodes = append(nodes, e.b.Nodes[i])
	}
	return nodes
}

// sortGroups orders disjoint component sets by smallest element — the
// canonical order groupsOf produces and the stream order stages are
// measured (and emitted) with. Insertion sort: group counts are tiny (at
// most the pruning bound s, 64 absolute), and sort.Slice's reflection
// machinery allocates.
func sortGroups(groups []bitset.Set) {
	for i := 1; i < len(groups); i++ {
		g := groups[i]
		j := i - 1
		for j >= 0 && groups[j].Min() > g.Min() {
			groups[j+1] = groups[j]
			j--
		}
		groups[j+1] = g
	}
}
