package measure

import (
	"encoding/binary"
	"sync"
)

// dict is a cache's dictionary: each distinct measurement context and
// each distinct kernel signature its keys name, numbered in arrival
// order. It only grows — an id, once handed out, means the same thing
// for the cache's lifetime, which is what lets profilers keep ids in
// their lowering tables — and it is bounded by the cache's own capacity:
// a full table refuses the next newcomer, and the stage that needed it is
// measured without the cache.
//
// Lookups take the read lock only, so profilers resolving ids — every
// warm /measure request builds a fresh one — do not serialise on each
// other or on the cache's shard mutexes.
type dict struct {
	max int // entries per table; 0 = unbounded

	mu      sync.RWMutex
	ctxIDs  map[string]uint32    // guarded by mu
	ctxs    []string             // guarded by mu; Context bytes by id
	kernIDs map[Signature]uint32 // guarded by mu
	kerns   []Signature          // guarded by mu; by id
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

// tables returns the two tables as they stand. Entries are never
// rewritten, so the slices stay valid, and cover every id handed out
// before the call, after the lock is released.
func (d *dict) tables() ([]string, []Signature) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ctxs, d.kerns
}

// intern is the step pair that translates a long-form key to this
// dictionary's ids, interning what is new.
func (d *dict) intern() (ctx, kern step) {
	return func(dst []byte, r *keyReader) ([]byte, bool) {
			c := r.context()
			if r.err != nil {
				return dst, false
			}
			id, ok := d.context(c)
			return binary.AppendUvarint(dst, uint64(id)), ok
		}, func(dst []byte, r *keyReader) ([]byte, bool) {
			s := r.signature()
			if r.err != nil {
				return dst, false
			}
			id, ok := d.kernel(s)
			return binary.AppendUvarint(dst, uint64(id)), ok
		}
}

// expand is the step pair that translates an id key under the given
// tables back to the long form.
func expand(ctxs []string, kerns []Signature) (ctx, kern step) {
	return func(dst []byte, r *keyReader) ([]byte, bool) {
			if id := r.int(); id < uint64(len(ctxs)) {
				return append(dst, ctxs[id]...), true
			}
			return dst, false
		}, func(dst []byte, r *keyReader) ([]byte, bool) {
			if id := r.int(); id < uint64(len(kerns)) {
				return kerns[id].appendTo(dst), true
			}
			return dst, false
		}
}

// absent marks an id with no translation in a renumber table.
const absent = ^uint32(0)

// renumber is the step that translates an id through table, for both of
// an id key's id spaces; an id outside the table or mapped to absent has
// no translation.
func renumber(table []uint32) step {
	return func(dst []byte, r *keyReader) ([]byte, bool) {
		if id := r.int(); id < uint64(len(table)) && table[id] != absent {
			return binary.AppendUvarint(dst, uint64(table[id])), true
		}
		return dst, false
	}
}
