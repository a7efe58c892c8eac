package core

// The level-synchronous bottom-up DP engine. The original implementation
// of Algorithm 1 (kept as the oracle in dp_reference_test.go) is a memoized
// top-down recursion: single-threaded, copying the ending enumerator's
// component list on every branch, and re-deriving each ending's group
// structure with a BFS. This engine computes the identical dynamic program
// keeping, like Algorithm 1 itself, memory in the number of *states*
// (cost[S], choice[S]) and of distinct stages (the stage memo) — never in
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
//     transition is stored. A transition reads cost[S − S'] first and,
//     on the simulator, drops S' unmeasured when a lower bound of its
//     stage latency — the barrier plus its longest group's solo durations,
//     summed by the enumerator as it merges components, or a merge
//     roofline — already cannot beat the state's best candidate (see
//     visit). Stage latencies of the endings that remain are memoized in a
//     sharded singleflight table laid out like internal/sfcache's: 16-byte
//     pointer-free slots (key, latency word — published with one store)
//     written once into chunks that are never copied, named by an index of
//     32-bit tagged refs that growth alone rebuilds. The key is what the
//     stage measures where that fits a word: its groups' classes (small
//     per-block ids of their operators' kernel ids, carried by the
//     enumerator beside the components) in measurement order, so the many
//     endings of a repeated cell that run the same kernels share one slot;
//     else the ending itself (see memoKey). So each stage is measured at most
//     once regardless of which endings and workers race to it, from the
//     enumerator's own incrementally tracked component list.
//
// Memo, state tables and workers belong to a pooled scratch, not to the
// block: an engine empties the scratch it is handed and leaves it grown.
//
// Equivalence with the reference recursion is bit-exact (asserted by
// property tests and the zoo equivalence test): per state, candidates are
// evaluated in the same order (serial tail first, then endings in
// enumeration order) with the same strictly-less comparison, stage
// latencies are measured from identically ordered groups, the serial-tail
// sum accumulates per-node solo durations in the same order, and a skipped
// ending is one the comparison would have rejected — so costs, choices,
// schedules, and the States/Transitions statistics coincide for any worker
// count. The reference measures every ending it meets, so its Measurements
// are an upper bound of the engine's, which are the same at every worker
// count: whether an ending is skipped depends on cost[S − S'], its bound
// and the candidates before it, never on scheduling.

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"ios/internal/bitset"
	"ios/internal/graph"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// stageShardCount is the maximum shard count of the stage memo; the engine
// uses enough shards to keep lock contention negligible at its worker count
// (one for a serial engine: a small block clears one).
const stageShardCount = 64

// stageSlot memoizes GENERATESTAGE for one stage within a block, as two
// words: key is the stage's memo key — its class key or its ending, see
// memoKey — and val the measured latency's bits. A latency is ≥ 0 and
// finite (engineWorker.measure makes anything else an error), which leaves
// the sign bit to say the stage runs merged and the non-finite patterns to
// say there is no latency. A worker claims a key under the shard lock by
// writing a slot — key, then stageInFlight — into the shard's chunks before
// the index word naming it, and publishes with one store of val, so the
// lock-free fast path holds a complete record whenever it reads anything
// else. A slot is written once a block and never moves. No pointers: the
// collector never scans the memo, and four slots share a cache line.
type stageSlot struct {
	key uint64
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

// The geometry of a shard's memo, internal/sfcache's flat-table layout.
const (
	// A shard's chunks hold 16 slots, doubling to 4,096.
	stageChunkMinBits = 4
	stageChunkBits    = 12
	// An index word is an 8-bit tag of the key's hash above a 24-bit
	// ref: 0 is a free slot, anything else names the slot at chunk
	// (ref-1)>>stageChunkBits, position (ref-1)&(1<<stageChunkBits-1).
	stageRefBits = 24
	// stageIndexMin is a shard's first index; an index is at most half full.
	stageIndexMin = 32
)

// stageChunkLen is the slot count of a shard's chunk c.
func stageChunkLen(c int) int {
	if c < stageChunkBits-stageChunkMinBits {
		return 1 << (stageChunkMinBits + c)
	}
	return 1 << stageChunkBits
}

// stageView is one generation of a shard's index over its chunks: growth
// publishes a view with an index twice as large, re-indexing the same
// slots, so a slot keeps its address for the life of the scratch. chunks
// has room for every slot the index can take; a new chunk is stored into
// its next element, the one view that is current, before any word naming
// a slot in it — so a reader holding an older view never meets a word
// naming a chunk its list lacks.
type stageView struct {
	index  []atomic.Uint32
	shift  uint8 // 64 - log2(len(index))
	chunks [][]stageSlot
}

func newStageView(words int) *stageView {
	chunks := 0
	for held := 0; held < words/2; chunks++ {
		held += stageChunkLen(chunks)
	}
	if chunks >= 1<<(stageRefBits-stageChunkBits) {
		panic(fmt.Sprintf("core: a stage memo shard of over %d keys outgrows its 24-bit refs", words/4))
	}
	return &stageView{
		index:  make([]atomic.Uint32, words),
		shift:  uint8(64 - bits.TrailingZeros(uint(words))),
		chunks: make([][]stageSlot, chunks),
	}
}

// find returns k's slot, or nil when the view does not hold it. h is
// hashKey(k). Takes no lock.
func (t *stageView) find(k, h uint64) *stageSlot {
	mask := uint64(len(t.index) - 1)
	tag := uint32(h>>24) & 0xFF
	for i := h >> t.shift; ; i = (i + 1) & mask {
		w := t.index[i].Load()
		if w == 0 {
			return nil
		}
		if w>>stageRefBits == tag {
			r := w&(1<<stageRefBits-1) - 1
			if s := &t.chunks[r>>stageChunkBits][r&(1<<stageChunkBits-1)]; s.key == k {
				return s
			}
		}
	}
}

// place stores the word naming slot j of chunk c, whose key hashes to h,
// in the first free index slot of its probe sequence.
func (t *stageView) place(h uint64, c, j int) {
	mask := uint64(len(t.index) - 1)
	i := h >> t.shift
	for t.index[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t.index[i].Store(uint32(h>>24)<<stageRefBits | uint32(c<<stageChunkBits|j) + 1)
}

// stageShard is one shard of the stage memo. Lookups of published slots
// take no lock: they probe whichever view tab holds, and anything they
// cannot settle there (an absent or in-flight key, absent perhaps only from
// a view a growth has replaced) falls through to the locked slow path. All writes — claims, publications, growth — happen
// under mu; wake is broadcast after every publication. A shard outlives
// the block: scratch.acquire empties its index and keeps its chunks for
// the next one.
type stageShard struct {
	mu   sync.Mutex
	wake sync.Cond
	tab  atomic.Pointer[stageView]
	// Slots in use, chunks in use and slots in use of the last.
	used, chunk, fill int
}

// claim returns k's slot, inserting it (in flight) when absent. Caller
// holds sh.mu.
func (sh *stageShard) claim(k, h uint64) (s *stageSlot, inserted bool) {
	t := sh.tab.Load()
	if s := t.find(k, h); s != nil {
		return s, false
	}
	if 2*(sh.used+1) > len(t.index) {
		t = sh.grow(t)
	}
	if sh.chunk == 0 || sh.fill == len(t.chunks[sh.chunk-1]) {
		if t.chunks[sh.chunk] == nil { // kept from an earlier block otherwise
			t.chunks[sh.chunk] = make([]stageSlot, stageChunkLen(sh.chunk))
		}
		sh.chunk, sh.fill = sh.chunk+1, 0
	}
	s = &t.chunks[sh.chunk-1][sh.fill]
	s.key = k
	s.val.Store(stageInFlight)
	t.place(h, sh.chunk-1, sh.fill)
	sh.fill++
	sh.used++
	return s, true
}

// grow publishes the shard's next view: an index twice as large over the
// same chunks, every slot in use re-indexed. Caller holds sh.mu.
func (sh *stageShard) grow(old *stageView) *stageView {
	t := newStageView(2 * len(old.index))
	copy(t.chunks, old.chunks)
	for c := 0; c < sh.chunk; c++ {
		n := len(t.chunks[c])
		if c == sh.chunk-1 {
			n = sh.fill
		}
		for j := 0; j < n; j++ {
			t.place(hashKey(t.chunks[c][j].key), c, j)
		}
	}
	sh.tab.Store(t)
	return t
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

// A class key (see memoKey) sets classTag, which no ending key of a block
// under bitset.MaxElems operators has, and holds its field width in the
// bits from classBits up; the fields take the classBits below.
const (
	classTag  = 1 << 63
	classBits = 57
)

// classSeed hashes kernel-id sequences for classes; any seed will do.
var classSeed = maphash.MakeSeed()

// classes names the components of a block's stages for the stage memo's class
// keys: a component's class is a small id of its operators' kernel-id
// sequence — their Profiler.KernelIDs strung together in block order, the
// bytes MeasureStage keys a group's stream by — so components that run the
// same kernels share a class, and class 0 is the components that launch
// none. Workers share one per block; each keeps what it has asked in its own
// table (engineWorker.classOf), so the lock is taken once per component per
// worker. Kept from block to block, like the memo.
type classes struct {
	mu sync.Mutex
	// Block operator i's kernel ids are ids[at[i]:at[i+1]], copied: a pooled
	// scratch holds nothing of the lowering table.
	ids []byte
	at  []int32
	// The classes' sequences, back to back: class c's ends at ends[c]. index
	// is an open-addressing table over their hashes of class+1 (0: free).
	seqs  []byte
	ends  []int32
	index []int32
}

// reset empties the table for block b, whose operators prof has lowered. It
// reports false when an operator's stages are not keyed, so neither are
// they here: the block's memo keeps ending keys.
func (c *classes) reset(b *graph.Block, prof *profile.Profiler) bool {
	c.ids, c.at = c.ids[:0], append(c.at[:0], 0)
	for _, n := range b.Nodes {
		ids, ok := prof.KernelIDs(n)
		if !ok {
			return false
		}
		c.ids = append(c.ids, ids...)
		c.at = append(c.at, int32(len(c.ids)))
	}
	c.seqs, c.ends = c.seqs[:0], c.ends[:0]
	if c.index == nil {
		c.index = make([]int32, 16)
	} else {
		clear(c.index)
	}
	c.intern(bitset.Empty()) // class 0: the components that launch no kernel
	return true
}

// seq is class id's kernel-id sequence. Caller holds c.mu.
func (c *classes) seq(id int32) []byte {
	var start int32
	if id > 0 {
		start = c.ends[id-1]
	}
	return c.seqs[start:c.ends[id]]
}

// intern returns the class of a component of the block, naming a new one
// when no component before it ran the same kernels.
func (c *classes) intern(comp bitset.Set) int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := len(c.seqs)
	for i := comp.NextAfter(-1); i >= 0; i = comp.NextAfter(i) {
		c.seqs = append(c.seqs, c.ids[c.at[i]:c.at[i+1]]...)
	}
	seq := c.seqs[start:]
	h := maphash.Bytes(classSeed, seq)
	mask := uint64(len(c.index) - 1)
	i := h & mask
	for ; c.index[i] != 0; i = (i + 1) & mask {
		if id := c.index[i] - 1; bytes.Equal(c.seq(id), seq) {
			c.seqs = c.seqs[:start]
			return id
		}
	}
	id := int32(len(c.ends))
	c.ends = append(c.ends, int32(len(c.seqs)))
	c.index[i] = id + 1
	if 2*len(c.ends) > len(c.index) { // at most half full
		c.index = make([]int32, 2*len(c.index))
		mask = uint64(len(c.index) - 1)
		for old := int32(0); old < int32(len(c.ends)); old++ {
			j := maphash.Bytes(classSeed, c.seq(old)) & mask
			for c.index[j] != 0 {
				j = (j + 1) & mask
			}
			c.index[j] = old + 1
		}
	}
	return id
}

// scratch is the working memory of block searches, held by one goroutine
// that searches blocks and reused from block to block and, through scratches,
// from call to call at the size earlier blocks grew it to. A collection
// empties the pool and so drops every idle scratch and its memory; what
// survives is sizes, the counts a fresh scratch's tables are sized from at
// acquisition, so it does not grow them again by doubling. newEngine empties
// it at acquisition, never at release — a failed or cancelled search leaves
// failed slots and half a level of cost/last behind, and nothing reads a
// scratch between engines; release only drops the last graph and profilers.
// There is one memo per shard count in use (serial: one shard; parallel:
// 4 × workers), so a small serial block never clears the tables a large
// parallel one grew. What a block does clear is cheap beside the search
// that dirtied it: a memo shard's index, 4 bytes per word at memclr speed
// and at most four words per key, each of which cost at least a stage
// measurement — under 1 % — while its chunks are only overwritten; the
// component classes' index and each worker's table of the components it
// has named, a few words per component. A warm scratch's block set-up
// allocates nothing.
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
	key     []byte  // the block's fingerprint; the block cache copies what it keeps
	classes classes // the block's component classes, for the memo's class keys
}

// scratches pools scratch across searches. A pooled scratch holds no graph,
// and the collector empties the pool: an idle process keeps none alive.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// sizes records, per block operator count, the most a block of that size
// has needed in this process: stage-memo keys (class keys and ending keys
// alike, see memoKey), as its fullest memo shard's count times the shard
// count, and states. It is counts, not memory, so it outlives the
// collections that empty scratches, and acquire sizes a scratch's memo index
// and state index from it.
var sizes [bitset.MaxElems + 1]struct{ keys, states atomic.Int64 }

// raise stores v in a if it is larger.
func raise(a *atomic.Int64, v int64) {
	for old := a.Load(); v > old && !a.CompareAndSwap(old, v); old = a.Load() {
	}
}

// record raises sizes for the engine's block from what its search used.
func (e *engine) record() {
	fullest := 0
	for i := range e.shards {
		fullest = max(fullest, e.shards[i].used)
	}
	size := &sizes[len(e.b.Nodes)]
	raise(&size.keys, int64(fullest*len(e.shards)))
	raise(&size.states, int64(len(e.states)))
}

// release drops the last block's graph and profilers and pools the scratch.
func (sc *scratch) release() {
	for _, w := range sc.workers {
		w.e, w.prof, w.err, w.enum.b = nil, nil, nil, nil
		clear(w.stageNodes[:])
		clear(w.groupArena[:])
	}
	scratches.Put(sc)
}

// acquire empties the scratch for a block of n operators and a memo of the
// given power-of-two shard count, first growing its memo index, state index
// and state list to what sizes says blocks of n operators have needed. No
// search is using it, so the plain clear of atomic index words is ordered
// before every later access.
func (sc *scratch) acquire(n, shards int) {
	memo := &sc.memos[bits.TrailingZeros(uint(shards))]
	if *memo == nil {
		*memo = make([]stageShard, shards)
	}
	sc.shards = *memo
	words := stageIndexMin // an index is at most half full
	for perShard := (sizes[n].keys.Load() + int64(shards) - 1) / int64(shards); int64(words) < 2*perShard; {
		words *= 2
	}
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.wake.L = &sh.mu
		if t := sh.tab.Load(); t == nil || len(t.index) < words {
			grown := newStageView(words)
			if t != nil {
				copy(grown.chunks, t.chunks)
			}
			sh.tab.Store(grown)
		} else {
			clear(t.index)
		}
		sh.used, sh.chunk, sh.fill = 0, 0, 0
	}
	states := int(sizes[n].states.Load())
	slots := 128 // a setTable is at most half full
	for slots < 2*states {
		slots *= 2
	}
	if len(sc.index.slots) < slots {
		sc.index.slots, sc.index.shift = make([]setSlot, slots), uint8(64-bits.TrailingZeros(uint(slots)))
	} else {
		clear(sc.index.slots)
	}
	sc.index.used = 0
	if cap(sc.states) < states {
		sc.states = make([]bitset.Set, 0, states)
	}
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
	// bounded: the profiler bounds stage latencies from below
	// (Profiler.CanBound), so visit skips the endings whose bound already
	// loses. classKeys: the memo keys stages by class form (see memoKey);
	// off with no measurement cache — no kernel ids — and for a block of
	// bitset.MaxElems operators, whose endings use classTag's bit. convs are
	// the block's single-input, ungrouped convolutions, the only operators a
	// merge stage can hold.
	bounded, classKeys bool
	convs              bitset.Set

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
	// known maps the components this worker has named in the block to their
	// classes (see classOf); classify is classOf bound once, for the
	// enumerator, and order memoKey's sorting scratch.
	known    setTable
	classify func(bitset.Set) int32
	order    [classBits / 2]uint64 // a class key's fields are at least 2 bits wide
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
	e.stageSync, e.bounded = prof.Spec().StageSync, prof.CanBound()
	sc.solo = sc.solo[:0]
	for i, n := range b.Nodes {
		sc.solo = append(sc.solo, prof.SoloDuration(n))
		if n.Op.Kind == graph.OpConv && len(n.Inputs) == 1 && n.Op.Groups == 1 {
			e.convs = e.convs.Add(i)
		}
	}
	e.classKeys = len(b.Nodes) < bitset.MaxElems && sc.classes.reset(b, prof)
	shards := 1
	if workers > 1 {
		for shards < 4*workers && shards < stageShardCount {
			shards <<= 1
		}
	}
	sc.acquire(len(b.Nodes), shards)
	for len(sc.workers) < workers {
		w := new(engineWorker)
		w.onEnding, w.classify = w.visit, w.classOf
		sc.workers = append(sc.workers, w)
	}
	e.workers = sc.workers[:workers]
	for i, w := range e.workers {
		w.e, w.prof, w.stats, w.err = e, prof, Stats{}, nil
		if i > 0 {
			w.prof = prof.Fork()
		}
		w.enum.classOf = nil
		if e.classKeys {
			w.enum.classOf = w.classify
			if w.known.slots == nil {
				w.known.slots, w.known.shift = make([]setSlot, 32), 64-5
			} else {
				clear(w.known.slots)
			}
			w.known.used = 0
		}
	}
	return e
}

// classOf is the class of a component of the block (see classes), asked of
// the shared table only the first time this worker meets the component.
func (w *engineWorker) classOf(comp bitset.Set) int32 {
	if id, ok := w.known.get(comp); ok {
		return id
	}
	id := w.e.classes.intern(comp)
	w.known.put(comp, id)
	return id
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
	e.record()
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

	w.enum.forEach(e.b, w.s, e.opts.Pruning, e.solo, w.onEnding)
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
//
// The sub-cost comes first: when even the ending's lower bound cannot bring
// the state below its best candidate so far, the ending is neither looked up
// nor measured. lb ≤ lat and float addition is monotone, so sub+lat ≥ best
// too, and the strictly-less test below would have rejected it: what is
// skipped could never have been chosen. Whether it is skipped depends on
// cost[S−E], lb(E) and the candidates before it in enumeration order only,
// so the set of endings measured is the same at every worker count.
func (w *engineWorker) visit(ending bitset.Set, comps []bitset.Set) bool {
	e := w.e
	if e.stop.Load() {
		return false
	}
	w.stats.Transitions++
	var sub float64
	if rem := w.s.Diff(ending); !rem.IsEmpty() {
		ci, ok := e.index.get(rem) // strictly lower level: complete
		if !ok {
			panic(fmt.Sprintf("core: remainder %v of state %v is not a listed state", rem, w.s))
		}
		sub = e.cost[ci]
	}
	if e.bounded && sub+w.lowerBound(ending, comps) >= w.best {
		return true
	}
	v := e.stage(w, w.memoKey(ending, comps), ending, comps)
	lat, merge, ok := stageLatency(v)
	if !ok {
		// Infeasible under the strategy restriction: skip. A failed
		// measurement has already set stop: give up on the state.
		return v == stageInfeasible
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

// mergeable reports whether an ending may also run merged: at least two
// operators, each its own group, all within the block's convolutions — what
// schedule.CanMerge needs of them, which reads more of the graph.
func (e *engine) mergeable(ending bitset.Set, comps []bitset.Set) bool {
	return e.opts.Strategies != ParallelOnly && len(comps) >= 2 && len(comps) == ending.Len() && ending.SubsetOf(e.convs)
}

// boundMargin is the relative slack lowerBound leaves for rounding: its sums
// associate differently from the simulator's event clock, and without it
// the bound of Figure 2's ending {1,4} reads 1.5837679158643166e-4 against
// a measured 1.5837679158643163e-4.
const boundMargin = 1e-9

// lowerBound is a lower bound of the ending's stage latency under a bounding
// profiler (Profiler.CanBound). Run concurrently, each group's stream takes
// at least its operators' solo durations, whose sums the enumerator keeps
// beside comps, so the stage takes the barrier plus the longest of them.
// An ending that may also run merged is bounded by the smaller of that and
// the merge roofline.
func (w *engineWorker) lowerBound(ending bitset.Set, comps []bitset.Set) float64 {
	e := w.e
	var longest float64
	for _, s := range w.enum.sums[:len(comps)] {
		longest = max(longest, s)
	}
	lb := e.stageSync + longest
	if e.mergeable(ending, comps) {
		nodes := w.stageNodes[:0]
		for i := ending.NextAfter(-1); i >= 0; i = ending.NextAfter(i) {
			nodes = append(nodes, e.b.Nodes[i])
		}
		if m, ok := w.prof.MergeLowerBound(nodes); ok {
			lb = min(lb, m)
		}
	}
	return lb * (1 - boundMargin)
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

// memoKey is the ending's key in the stage memo: the ending itself, or,
// where the block has class keys (see classes) and the ending cannot run
// merged, its class form — classTag, the field width, and its groups'
// classes in the order measureStage gives the groups, each plus one in a
// field of that width. Profiler.MeasureStage keys the stage by exactly the
// kernel ids the classes name, in that order, so endings of one class form
// measure bit-identically and the memo holds each stage once. A form whose
// fields do not fit keeps the ending key: both key spaces name one latency.
func (w *engineWorker) memoKey(ending bitset.Set, comps []bitset.Set) uint64 {
	if !w.e.classKeys || w.e.mergeable(ending, comps) {
		return uint64(ending)
	}
	var most int32
	for _, c := range w.enum.class[:len(comps)] {
		most = max(most, c)
	}
	width := bits.Len32(uint32(most) + 1)
	if most == 0 || len(comps)*width > classBits {
		// A stage that launches no kernel has no measurement key either:
		// MeasureStage measures each such ending, and the memo keeps them.
		return uint64(ending)
	}
	// Smallest operator above class: sorting the words orders the classes
	// as sortGroups orders the groups.
	order := w.order[:len(comps)]
	for i, g := range comps {
		order[i] = uint64(g.Min())<<32 | uint64(w.enum.class[i])
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j] < order[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	k := classTag | uint64(width)<<classBits
	for i, o := range order {
		k |= (uint64(uint32(o)) + 1) << (i * width)
	}
	return k
}

// stage returns the memoized word of an ending under its memo key k (see
// memoKey and stageSlot), measuring it if this worker is the first to ask
// for k. The fast path — k is already published — takes no lock.
func (e *engine) stage(w *engineWorker, k uint64, ending bitset.Set, comps []bitset.Set) uint64 {
	h := hashKey(k)
	sh := &e.shards[h&uint64(len(e.shards)-1)]
	if s := sh.tab.Load().find(k, h); s != nil {
		if v := s.val.Load(); v != stageInFlight {
			return v
		}
	}

	// Slow path: claim the key or wait for its claimant. The slot never
	// moves, so the one claim found is the one published, whatever the index
	// did while the lock was dropped; publishing under the lock keeps a
	// waiter from missing the broadcast.
	sh.mu.Lock()
	s, inserted := sh.claim(k, h)
	if inserted {
		sh.mu.Unlock()
		v := e.measureStage(w, ending, comps)
		sh.mu.Lock()
		s.val.Store(v)
		sh.mu.Unlock()
		sh.wake.Broadcast()
		return v
	}
	for s.val.Load() == stageInFlight {
		sh.wake.Wait()
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
