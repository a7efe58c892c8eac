//ioslint:deterministic

// Package measure is the structural measurement cache behind IOS's
// profiling layer: a process-wide, concurrency-safe map from a canonical
// stage fingerprint to the exact simulated latency of that stage.
//
// The paper's workloads are highly repetitive — NasNet-A is a stack of
// near-identical cells, Inception repeats block structure, and a serving
// tier re-optimizes the same models across requests — yet the search's
// stage memos are keyed by node identity and scoped to one block of one
// search, so every repeated structure is re-simulated from scratch. This
// package deduplicates that work by *structural* identity instead: two
// stages whose lowered kernel programs are identical (same per-stream
// kernel signatures on the same device model) have, by the simulator's
// determinism, exactly the same latency, no matter which nodes, which
// block, which search, or which process run produced them.
//
// Correctness rests on the key being an exact canonical serialization of
// the measurement input, not a lossy hash: a cache hit returns the very
// float64 the simulator would have computed, so schedules, costs, and DP
// state/transition statistics are bit-identical with the cache on or off —
// only the number of simulator invocations drops.
//
// A key has two forms, both exact. The long form (Context + AppendStreams,
// KeyVersion 1) spells every device field and kernel signature out: it is
// the canonical, inspectable encoding — what StageFingerprint returns,
// what WireEntry, Snapshot and Merge speak, what block-cache keys embed —
// and it means the same in every process. The id form is what a Cache
// holds in memory and in its file: the cache interns each distinct
// context and each distinct kernel Signature it meets to a small integer
// (a search meets a few dozen) and keys a stage by
//
//	ctx-id ‖ #streams ‖ per stream: #kernels ‖ kernel ids
//
// all uvarints — some 20 bytes where the long form takes 300. Ids are
// relative to one cache's dictionary (append-only, numbered in arrival
// order), so an id key never leaves its cache: Snapshot translates to
// the long form, Merge from it, and a cache file carries the dictionary
// it was written under, renumbered canonically (see Save).
package measure

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"ios/internal/gpusim"
	"ios/internal/sfcache"
)

// KeyVersion is the first byte of every cache key: the version of the
// canonical encoding below. Bump it whenever the encoding (or the set of
// latency-relevant fields it covers) changes, so persisted caches from
// older builds are rejected at Load instead of silently mismatching.
const KeyVersion = 1

// Context returns the canonical cache-key prefix for a measurement
// substrate: every device-model field that can influence a simulated
// latency, plus the profiler's per-kernel framework dispatch overhead
// (which is folded into kernel byte counts before the simulator runs).
// Keys built on the same Context prefix are comparable; keys from
// different devices or lowering overheads never collide, which is what
// lets one process-wide cache serve requests for several devices.
//
// Spec.Name is included even though the simulator's arithmetic never
// reads it: for the built-in simulator a latency is a pure function of
// the numeric fields, but a custom profile.Backend is identified only by
// its Spec, so the name is the one handle that keeps two backends with
// numerically identical specs (e.g. a hardware harness modeled after the
// V100) from silently serving each other's latencies out of a shared
// cache. Custom backends sharing a cache must therefore use distinct
// Spec names — the same convention the serving tier's schedule cache
// already relies on.
func Context(spec gpusim.Spec, extraLaunchOverhead float64) []byte {
	key := make([]byte, 0, 96+len(spec.Name))
	key = append(key, KeyVersion)
	key = appendInt(key, len(spec.Name))
	key = append(key, spec.Name...)
	key = appendInt(key, spec.SMs)
	key = appendFloat(key, spec.PeakFLOPs)
	key = appendFloat(key, spec.MemBandwidth)
	key = appendInt(key, spec.BlocksPerSM)
	key = appendInt(key, spec.WarpsPerSM)
	key = appendInt(key, spec.WarpsForPeak)
	key = appendFloat(key, spec.KernelLaunch)
	key = appendFloat(key, spec.StageSync)
	key = appendFloat(key, spec.ContentionCoef)
	key = appendInt(key, spec.MaxConcurrentKernels)
	key = appendFloat(key, extraLaunchOverhead)
	return key
}

// AppendStreams appends the canonical encoding of a stage's stream
// programs — the stage's concurrency-group structure down to per-kernel
// launch signatures — to a key (normally a Context prefix) and returns the
// extended slice. The encoding is length-prefixed at every level, so it is
// an unambiguous serialization: equal keys imply equal stream programs.
//
// Kernel names are excluded (they label traces, carry node names, and
// never influence the simulator), which is precisely what makes the
// fingerprint invariant to node identity and graph position. Stream order
// is preserved: callers measuring canonically ordered stages (as the DP
// engine and MeasureStage both do) get position-invariant sharing without
// this package having to assert that the simulator is order-invariant.
func AppendStreams(key []byte, streams []gpusim.Stream) []byte {
	key = appendInt(key, len(streams))
	for _, s := range streams {
		key = appendInt(key, len(s))
		for i := range s {
			key = SignatureOf(&s[i]).appendTo(key)
		}
	}
	return key
}

// Signature is a kernel's measurement identity: the fp:"include" fields of
// gpusim.Kernel, floats by bit pattern and ints widened, so two signatures
// compare equal exactly when AppendStreams encodes them to the same bytes
// (a NaN cannot split a map key; +0 and -0 stay apart).
type Signature struct {
	flops, bytes  uint64
	blocks, warps uint64
}

// SignatureOf returns the kernel's signature.
func SignatureOf(k *gpusim.Kernel) Signature {
	return Signature{
		flops: math.Float64bits(k.FLOPs), bytes: math.Float64bits(k.Bytes),
		blocks: uint64(k.Blocks), warps: uint64(k.WarpsPerBlock),
	}
}

// appendTo appends the signature's long form, one kernel of AppendStreams.
func (s Signature) appendTo(key []byte) []byte {
	key = binary.LittleEndian.AppendUint64(key, s.flops)
	key = binary.LittleEndian.AppendUint64(key, s.bytes)
	key = binary.AppendUvarint(key, s.blocks)
	return binary.AppendUvarint(key, s.warps)
}

// check rejects what no lowering produces and no simulator accepts; only
// signatures that pass are interned, saved or loaded.
func (s Signature) check() error {
	k := gpusim.Kernel{
		FLOPs: math.Float64frombits(s.flops), Bytes: math.Float64frombits(s.bytes),
		Blocks: int(s.blocks), WarpsPerBlock: int(s.warps),
	}
	if math.IsNaN(k.FLOPs) || math.IsNaN(k.Bytes) || math.IsInf(k.FLOPs, 1) || math.IsInf(k.Bytes, 1) ||
		s.blocks > math.MaxInt32 || s.warps > math.MaxInt32 {
		return fmt.Errorf("invalid kernel signature (flops=%g bytes=%g blocks=%d warps=%d)", k.FLOPs, k.Bytes, s.blocks, s.warps)
	}
	return k.Validate()
}

// keyReader walks a key of either form; the first malformed element sets
// err and empties the rest, so callers check once, at the end.
type keyReader struct {
	b   []byte
	err error
}

func (r *keyReader) fail() {
	r.b, r.err = nil, fmt.Errorf("malformed key")
}

// int reads a uvarint in its shortest encoding — the only one appendInt
// writes, so a key that parses re-encodes to the same bytes.
func (r *keyReader) int() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n != (bits.Len64(v|1)+6)/7 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads the next n bytes.
func (r *keyReader) bytes(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// float reads a float64's bit pattern.
func (r *keyReader) float() uint64 {
	if b := r.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// signature reads one kernel of AppendStreams.
func (r *keyReader) signature() Signature {
	return Signature{flops: r.float(), bytes: r.float(), blocks: r.int(), warps: r.int()}
}

// context reads a Context, field by field in the order Context writes
// them, and returns its bytes.
func (r *keyReader) context() []byte {
	start := r.b
	if err := sfcache.CheckKey(r.b, KeyVersion); err != nil {
		r.b, r.err = nil, err
		return nil
	}
	r.b = r.b[1:]
	r.bytes(r.int()) // Name
	r.int()          // SMs
	r.float()        // PeakFLOPs
	r.float()        // MemBandwidth
	r.int()          // BlocksPerSM
	r.int()          // WarpsPerSM
	r.int()          // WarpsForPeak
	r.float()        // KernelLaunch
	r.float()        // StageSync
	r.float()        // ContentionCoef
	r.int()          // MaxConcurrentKernels
	r.float()        // extraLaunchOverhead
	return start[:len(start)-len(r.b)]
}

// checkContext rejects bytes that are not exactly one Context.
func checkContext(ctx []byte) error {
	r := keyReader{b: ctx}
	if r.context(); r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("malformed context: %d bytes after the last field", len(r.b))
	}
	return nil
}

// A step reads one element of a key from r — a context or a kernel, in
// whichever form the key has — and appends its translation to dst; false
// means it has none.
type step func(dst []byte, r *keyReader) ([]byte, bool)

// rewrite walks a key of either form — a context, the stream count, per
// stream the kernel count and that many kernels — copying the counts to
// dst as both forms write them and letting ctx and kern translate the
// elements. It fails on a malformed key, on bytes left over, and with
// errNoID when a step does. The reader is the caller's so that a loop
// over many keys allocates one.
func (r *keyReader) rewrite(dst, key []byte, ctx, kern step) ([]byte, error) {
	r.b, r.err = key, nil
	dst, ok := ctx(dst, r)
	streams := r.int()
	dst = binary.AppendUvarint(dst, streams)
	for ; ok && r.err == nil && streams > 0; streams-- {
		kernels := r.int()
		dst = binary.AppendUvarint(dst, kernels)
		for ; ok && r.err == nil && kernels > 0; kernels-- {
			dst, ok = kern(dst, r)
		}
	}
	switch {
	case r.err != nil:
		return nil, r.err
	case !ok:
		return nil, errNoID
	case len(r.b) != 0:
		return nil, fmt.Errorf("malformed key: %d bytes after the last stream", len(r.b))
	}
	return dst, nil
}

// errNoID reports an element a step could not translate: a signature no
// simulator accepts, a full dictionary, an id outside its table.
var errNoID = errors.New("key names a context or kernel the dictionary cannot hold")

// appendFloat appends the IEEE-754 bit pattern, little-endian. Encoding
// bits (not a decimal rendering) keeps the key exact: distinct float64
// values always produce distinct bytes.
func appendFloat(key []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
}

// appendInt appends a non-negative int as a uvarint (self-delimiting, so
// mixed fixed/varint records still decode unambiguously).
func appendInt(key []byte, v int) []byte {
	return binary.AppendUvarint(key, uint64(v))
}
