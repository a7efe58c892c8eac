// Package blockcache is the whole-block schedule cache behind IOS's
// search layer: a process-wide, concurrency-safe map from a canonical
// structural fingerprint of one block — its DAG, its operators' lowered
// kernel programs, the device model, and the search options — to the
// completed schedule the dynamic program produced for that structure.
//
// The paper's networks are stacks of repeated cells: NasNet-A runs ~18
// near-identical cells, Inception repeats block structure, and a serving
// tier re-optimizes the same models across requests — yet the search pays
// a full per-block DP for every repetition. internal/measure removed the
// repetition at stage granularity (a cache hit returns the exact simulated
// latency); this package makes the same move one level up: a completed
// block schedule is itself a reusable, fingerprint-addressable artifact.
// Two blocks with equal fingerprints would drive the DP through identical
// states, identical measurements, and identical tie-breaks, so the search
// can only produce the same schedule — the cache returns it without
// running the search at all.
//
// Correctness rests on the key being an exact canonical serialization of
// everything the block search reads, not a lossy hash. Node IDs and names
// are excluded (the search never consults them; block-local position is
// the canonical identity), which is what makes the fingerprint invariant
// to where in a network — or in which network — a block occurs. Cached
// schedules are stored in node-ID-free canonical form (stages over
// block-local operator indices) and rebound onto the requesting block's
// nodes on every hit, the way internal/plan rebinds schedule recipes
// across batch sizes.
package blockcache

import (
	"slices"

	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/profile"
)

// KeyVersion is the first byte of every block fingerprint: the version of
// the canonical encoding below. Bump it whenever the encoding (or the set
// of search-relevant inputs it covers) changes, so persisted caches from
// older builds are rejected at Load instead of silently mismatching.
const KeyVersion = 1

// Reference tags for the node-reference encoding (see Fingerprint). Every
// node a block record mentions is either one of the block's own operators
// (referenced by block-local index) or a boundary node outside the block —
// a graph input, an earlier block's producer, or a later block's consumer.
// Boundary nodes get sequential indices in first-touch order; the first
// touch carries the node's search-relevant record inline, later touches
// just the index. Identity therefore round-trips: two block operators
// sharing one external input encode the same boundary index, while
// operators reading two different-but-identically-shaped tensors do not —
// a distinction the merge strategy's shared-input rule depends on.
const (
	refLocal       = 0 // block-local operator: tag + local index
	refBoundary    = 1 // already-seen boundary node: tag + boundary index
	refNewBoundary = 2 // first touch: tag + inline boundary record
)

// Fingerprint returns the canonical structural fingerprint of a block as
// searched by the DP under the given profiler and options: equal
// fingerprints imply bit-identical block searches (schedule, cost, and
// state/transition statistics), no matter which nodes, which network, or
// which process run is asking.
//
// The encoding reuses the measurement cache's conventions — length- or
// tag-prefixed at every level, floats as IEEE-754 bit patterns, ints as
// uvarints — and covers, in order:
//
//   - the measurement context (device-model fields + dispatch overhead),
//     Profiler.Context, so caches shared across devices never collide;
//   - the canonical options fingerprint (strategy set, pruning bounds,
//     block-size cap — core.Options.Fingerprint), which excludes pure
//     execution knobs like Workers by design;
//   - per operator, in block order: the operator record (kind and every
//     hyperparameter the merge strategy's eligibility and fused-kernel
//     construction read), its output shape, its lowered kernel program
//     (the profiler's own lowering, via measure.AppendStreams — this also
//     pins down any KernelQuality scaling), its input list as node
//     references, and — for convolutions only — the one consumer fact.
//
// Consumer context is deliberately minimal. The only place the search
// looks downstream is the merge strategy's split-is-free test, which asks,
// for merge-eligible convolutions, whether the operator's sole consumer is
// a concat, which concat, and what that concat concatenates (in order).
// The fingerprint encodes exactly that — a flag plus a reference to the
// concat, whose first-touch record (possibly in a later block, under
// manual boundaries) carries its input references. Encoding any more of
// the consumer neighborhood would leak a block's downstream position into
// its key: a repeated cell's output concat feeds the NEXT cell, so
// encoding full consumer lists would make every repetition of an
// otherwise identical cell fingerprint distinct and defeat the cache on
// exactly the networks it targets.
func Fingerprint(b *graph.Block, prof *profile.Profiler, optsFingerprint string) []byte {
	return AppendFingerprint(make([]byte, 0, 256+64*len(b.Nodes)), b, prof, optsFingerprint)
}

// AppendFingerprint appends the block's Fingerprint to dst and returns the
// extended buffer, so a searcher can encode block after block into one.
func AppendFingerprint(dst []byte, b *graph.Block, prof *profile.Profiler, optsFingerprint string) []byte {
	key := append(dst, KeyVersion)
	key = append(key, prof.Context()...)
	key = appendInt(key, len(optsFingerprint))
	key = append(key, optsFingerprint...)

	enc := keyEncoder{key: key, block: b.Nodes}
	enc.key = appendInt(enc.key, len(b.Nodes))
	var streams [1]gpusim.Stream
	for _, n := range b.Nodes {
		enc.appendOp(n.Op)
		enc.appendShape(n.Output)
		// The lowered kernel program (names excluded by AppendStreams):
		// signatures subsume the input shapes and quality scaling that the
		// concurrent strategy's latencies are functions of.
		streams[0] = prof.Kernels(n)
		enc.key = measure.AppendStreams(enc.key, streams[:])
		enc.appendRefs(n.Inputs)
		// The split-is-free consumer fact, for convolutions (the only
		// merge-eligible kind): sole-consumer-concat flag + concat ref.
		if n.Op.Kind == graph.OpConv {
			if outs := n.Outputs(); len(outs) == 1 && outs[0].Op.Kind == graph.OpConcat {
				enc.key = append(enc.key, 1)
				enc.appendRef(outs[0])
			} else {
				enc.key = append(enc.key, 0)
			}
		}
	}
	return enc.key
}

// keyEncoder threads the boundary-node numbering through one block's
// encoding. Its lookups search short slices, and it holds the first boundary
// nodes inline, so encoding a block allocates nothing but the key's growth.
type keyEncoder struct {
	key   []byte
	block []*graph.Node
	seen  [16]*graph.Node // the first boundary nodes, in first-touch order
	more  []*graph.Node   // and the rest
}

// boundary returns n's boundary index, or -1 after numbering n as the next.
func (e *keyEncoder) boundary(n *graph.Node) int {
	if i := slices.Index(e.seen[:], n); i >= 0 {
		return i
	}
	if i := slices.Index(e.more, n); i >= 0 {
		return len(e.seen) + i
	}
	if i := slices.Index(e.seen[:], nil); i >= 0 {
		e.seen[i] = n
	} else {
		e.more = append(e.more, n)
	}
	return -1
}

// appendRefs encodes a node list (inputs or consumers) in slice order —
// order and multiplicity both matter: concat input order decides whether a
// merged stage's output layout already is the concat result.
func (e *keyEncoder) appendRefs(nodes []*graph.Node) {
	e.key = appendInt(e.key, len(nodes))
	for _, n := range nodes {
		e.appendRef(n)
	}
}

// appendRef encodes one node reference; a boundary node's first touch
// inlines its record.
func (e *keyEncoder) appendRef(n *graph.Node) {
	if i := slices.Index(e.block, n); i >= 0 {
		e.key = append(e.key, refLocal)
		e.key = appendInt(e.key, i)
		return
	}
	if i := e.boundary(n); i >= 0 {
		e.key = append(e.key, refBoundary)
		e.key = appendInt(e.key, i)
		return
	}
	e.key = append(e.key, refNewBoundary)
	e.key = appendInt(e.key, int(n.Op.Kind))
	e.appendShape(n.Output)
	if n.Op.Kind == graph.OpConcat {
		// A boundary concat's input list decides the merge strategy's
		// split-is-free test for block operators feeding it; its inputs are
		// referenced for identity only, never expanded further (their
		// internal structure is invisible to this block's search).
		e.appendRefs(n.Inputs)
	}
}

// appendOp encodes the full operator record: every field the search can
// read through lowering, merge eligibility, or merged-kernel construction.
func (e *keyEncoder) appendOp(op graph.Op) {
	e.key = appendInt(e.key, int(op.Kind))
	e.key = appendInt(e.key, op.OutChannels)
	e.key = appendInt(e.key, op.KernelH)
	e.key = appendInt(e.key, op.KernelW)
	e.key = appendInt(e.key, op.StrideH)
	e.key = appendInt(e.key, op.StrideW)
	e.key = appendInt(e.key, op.PadH)
	e.key = appendInt(e.key, op.PadW)
	e.key = appendInt(e.key, op.Groups)
	e.key = appendInt(e.key, int(op.Act))
	e.key = appendInt(e.key, int(op.Pool))
	e.key = appendInt(e.key, op.OutFeatures)
}

// appendShape encodes an NCHW tensor shape.
func (e *keyEncoder) appendShape(s graph.Shape) {
	e.key = appendInt(e.key, s.N)
	e.key = appendInt(e.key, s.C)
	e.key = appendInt(e.key, s.H)
	e.key = appendInt(e.key, s.W)
}
