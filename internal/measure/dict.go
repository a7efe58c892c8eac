package measure

import (
	"encoding/binary"
	"sync"

	"ios/internal/sfcache"
)

// dict is a cache's dictionary: each distinct measurement context, each
// distinct kernel signature and each distinct stream its keys name,
// numbered in arrival order. A stream is one concurrency group's program
// as a record of uvarints — its kernel count, then its kernels' ids — so
// a stage's id key names each of its streams by one id. The dictionary
// only grows — an id, once handed out, means the same thing for the
// cache's lifetime, which is what lets profilers keep ids in their
// lowering tables — and it is bounded by the cache's own capacity: a full
// table refuses the next newcomer, and the stage that needed it is
// measured without the cache.
//
// Context and kernel lookups take the read lock only, so profilers
// resolving ids — every warm /measure request builds a fresh one — do not
// serialise on each other or on the cache's shard mutexes. Stream lookups,
// a handful per stage measured, take no lock at all: streamIDs is an
// sfcache core probed without one, written only under mu.
type dict struct {
	max int // entries per table; 0 = unbounded

	mu      sync.RWMutex
	ctxIDs  map[string]uint32    // guarded by mu
	ctxs    []string             // guarded by mu; Context bytes by id
	kernIDs map[Signature]uint32 // guarded by mu
	kerns   []Signature          // guarded by mu; by id
	streams streamTable          // guarded by mu

	// streamIDs indexes streams: a stream record's id. It is unbounded,
	// so it holds every stream and a miss under mu is authoritative —
	// unless a shard of it shed (it holds 61,440 records of over 128
	// bytes), after which the table takes no newcomer.
	streamIDs *sfcache.Core[uint32]
}

func newDict(max int) dict {
	return dict{max: max, streamIDs: sfcache.NewCore[uint32](0)}
}

// context returns the id of a Context's bytes, interning a well-formed
// context not yet held if its table has room, or absent and false.
func (d *dict) context(ctx []byte) (uint32, bool) {
	d.mu.RLock()
	id, ok := d.ctxIDs[string(ctx)]
	d.mu.RUnlock()
	if ok {
		return id, true
	}
	if checkContext(ctx) != nil {
		return absent, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ctxIDs[string(ctx)]; ok {
		return id, true
	}
	if d.max > 0 && len(d.ctxs) >= d.max {
		return absent, false
	}
	if d.ctxIDs == nil {
		d.ctxIDs = make(map[string]uint32)
	}
	id, s := uint32(len(d.ctxs)), string(ctx)
	d.ctxs = append(d.ctxs, s)
	d.ctxIDs[s] = id
	return id, true
}

// kernel is context for a kernel signature; only signatures that pass
// check are interned.
func (d *dict) kernel(s Signature) (uint32, bool) {
	d.mu.RLock()
	id, ok := d.kernIDs[s]
	d.mu.RUnlock()
	if ok {
		return id, true
	}
	if s.check() != nil {
		return absent, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.kernIDs[s]; ok {
		return id, true
	}
	if d.max > 0 && len(d.kerns) >= d.max {
		return absent, false
	}
	if d.kernIDs == nil {
		d.kernIDs = make(map[Signature]uint32)
	}
	id = uint32(len(d.kerns))
	d.kerns = append(d.kerns, s)
	d.kernIDs[s] = id
	return id, true
}

// stream is context for a stream record; only records of kernels in the
// kernel table are interned. A hit takes no lock and allocates nothing.
func (d *dict) stream(rec []byte) (uint32, bool) {
	if id, ok := d.streamIDs.Lookup(rec); ok {
		return id, true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Every claim is taken under mu, so a miss here is ours to fill.
	id, cl, _ := d.streamIDs.GetOrBegin(nil, rec)
	if cl == nil {
		return id, true
	}
	if d.max > 0 && d.streams.len() >= d.max || d.streamIDs.Len() != d.streams.len() || !isStream(rec, len(d.kerns)) {
		cl.Abandon()
		return absent, false
	}
	id = uint32(d.streams.len())
	d.streams.add(rec)
	cl.Commit(id)
	return id, true
}

// isStream reports whether rec is one stream record over a kernel table of
// n signatures.
func isStream(rec []byte, n int) bool {
	r := keyReader{b: rec}
	for k := r.int(); k > 0 && r.err == nil; k-- {
		if r.int() >= uint64(n) {
			return false
		}
	}
	return r.err == nil && len(r.b) == 0
}

// streamTable holds stream records by id, back to back: record id ends at
// ends[id]. It is only appended to, so a copy of it stays valid, for the
// ids it held, while the table grows.
type streamTable struct {
	buf  []byte
	ends []uint32
}

func (t *streamTable) add(rec []byte) {
	t.buf = append(t.buf, rec...)
	t.ends = append(t.ends, uint32(len(t.buf)))
}

func (t streamTable) len() int { return len(t.ends) }

// at returns record id.
func (t streamTable) at(id int) []byte {
	start := uint32(0)
	if id > 0 {
		start = t.ends[id-1]
	}
	return t.buf[start:t.ends[id]:t.ends[id]]
}

// tables returns the three tables as they stand. Entries are never
// rewritten, so the slices stay valid, and cover every id handed out
// before the call, after the lock is released.
func (d *dict) tables() ([]string, []Signature, streamTable) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ctxs, d.kerns, d.streams
}

// intern is the step pair that translates a long-form key to this
// dictionary's ids, interning what is new.
func (d *dict) intern() (ctx, stream step) {
	var rec []byte // the stream's record, reused from stream to stream
	kern := func(dst []byte, r *keyReader) ([]byte, bool) {
		s := r.signature()
		if r.err != nil {
			return dst, false
		}
		id, ok := d.kernel(s)
		return binary.AppendUvarint(dst, uint64(id)), ok
	}
	return func(dst []byte, r *keyReader) ([]byte, bool) {
			c := r.context()
			if r.err != nil {
				return dst, false
			}
			id, ok := d.context(c)
			return binary.AppendUvarint(dst, uint64(id)), ok
		}, func(dst []byte, r *keyReader) ([]byte, bool) {
			var ok bool
			if rec, ok = r.kernels(rec[:0], kern); !ok || r.err != nil {
				return dst, false
			}
			id, ok := d.stream(rec)
			return binary.AppendUvarint(dst, uint64(id)), ok
		}
}

// expand is the step pair that translates an id key under the given
// tables back to the long form.
func expand(ctxs []string, kerns []Signature, streams streamTable) (ctx, stream step) {
	var sr keyReader // a stream's record, one at a time
	kern := func(dst []byte, r *keyReader) ([]byte, bool) {
		if id := r.int(); id < uint64(len(kerns)) {
			return kerns[id].appendTo(dst), true
		}
		return dst, false
	}
	return func(dst []byte, r *keyReader) ([]byte, bool) {
			if id := r.int(); id < uint64(len(ctxs)) {
				return append(dst, ctxs[id]...), true
			}
			return dst, false
		}, func(dst []byte, r *keyReader) ([]byte, bool) {
			if id := r.int(); id < uint64(streams.len()) {
				sr.b = streams.at(int(id))
				return sr.kernels(dst, kern)
			}
			return dst, false
		}
}

// absent marks an id with no translation in a renumber table.
const absent = ^uint32(0)

// renumber is the step that translates an id through table, for each of
// the dictionary's id spaces; an id outside the table or mapped to absent
// has no translation.
func renumber(table []uint32) step {
	return func(dst []byte, r *keyReader) ([]byte, bool) {
		if id := r.int(); id < uint64(len(table)) && table[id] != absent {
			return binary.AppendUvarint(dst, uint64(table[id])), true
		}
		return dst, false
	}
}

// inTable is the step that accepts an id inside a table of n entries and
// appends nothing.
func inTable(n int) step {
	return func(dst []byte, r *keyReader) ([]byte, bool) { return dst, r.int() < uint64(n) }
}
