package sfcache

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"ios/internal/atomicfile"
)

// Wire is the constraint on a cache's wire-entry type W: the unit of both
// the persisted cache file and cluster peer exchange, so persistence and
// peer exchange share one serialization path. Decode validates an entry
// from an untrusted file or peer and returns its raw fingerprint (see
// DecodeKey) and value; it is the only way wire bytes become cache
// contents.
type Wire[V any] interface {
	Decode() (key []byte, v V, err error)
}

// wireKey is a fingerprint's wire encoding: base64, raw URL alphabet (it
// doubles as the path segment of a peer GET).
func wireKey[K string | []byte](key K) string {
	return base64.RawURLEncoding.EncodeToString([]byte(key))
}

// DecodeKey is the key half of every Wire.Decode: it reverses the wire
// encoding and rejects malformed base64 and fingerprints built by an
// incompatible key-encoding version (the first byte of every key).
func DecodeKey(s string, keyVersion byte) ([]byte, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("bad key: %w", err)
	}
	if len(raw) == 0 || raw[0] != keyVersion {
		return nil, fmt.Errorf("key encoding version mismatch (cache built by an incompatible version)")
	}
	return raw, nil
}

// Codec is what a package supplies to instantiate the core: how a
// completed value is rendered into its wire entry (W's Decode method is
// the other direction) and how its cache file is stamped.
type Codec[V any, W Wire[V]] struct {
	// Name prefixes error messages.
	Name string
	// FileVersion is the persisted-file format version (independent of
	// the key-encoding version embedded in every key's first byte).
	FileVersion int
	// Encode renders one completed entry; key is the fingerprint already
	// in its wire encoding (what DecodeKey reverses).
	Encode func(key string, v V) W
}

// file is the persisted JSON form of a cache: a version stamp plus one
// wire entry per completed fingerprint.
type file[W any] struct {
	Version int `json:"version"`
	Entries []W `json:"entries"`
}

// Snapshot exports every completed entry published after the given
// sequence point, sorted by fingerprint, plus the sequence point to pass
// to the next incremental Snapshot. Snapshot(0) exports the whole cache
// (the persisted-file body); a cluster pusher feeds each call's returned
// point back in to ship only what was published since its last round.
//
// The cut is exact: publication stamps the sequence under the cell's
// shard mutex, and Snapshot holds every shard mutex while it scans and
// reads the counter, so no concurrent Commit can land inside the cut
// unseen. Entries evicted between snapshots are simply absent — they are
// always recomputable.
func (c *Cache[V, W]) Snapshot(since uint64) ([]W, uint64) {
	type row struct {
		key string
		val V
	}
	var rows []row
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	for i := range c.shards {
		for k, e := range c.shards[i].m {
			if e.state == cellDone && e.seq > since {
				rows = append(rows, row{key: k, val: e.val})
			}
		}
	}
	next := c.seq.Load()
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	out := make([]W, 0, len(rows))
	for _, r := range rows {
		out = append(out, c.codec.Encode(wireKey(r.key), r.val))
	}
	return out, next
}

// Export returns the wire form of the completed entries among keys, in
// key order of the input; absent and in-flight keys are skipped. This is
// the lookup side of peer exchange: a peer asks for specific
// fingerprints and gets back only what this cache has finished.
func (c *Cache[V, W]) Export(keys [][]byte) []W {
	out := make([]W, 0, len(keys))
	for _, key := range keys {
		if v, ok := c.Lookup(key); ok {
			out = append(out, c.codec.Encode(wireKey(key), v))
		}
	}
	return out
}

// Merge validates wire entries and inserts the absent ones, returning
// how many were added (already-present fingerprints are kept, not
// overwritten — both sides hold the result of the same deterministic
// computation). Merge is all-or-nothing: every entry is validated before
// a single one is inserted, so a corrupt batch leaves the cache exactly as
// it was. Added entries count toward Stats.Loaded.
//
//ioslint:validator
func (c *Cache[V, W]) Merge(entries []W) (int, error) {
	keys := make([]string, len(entries))
	vals := make([]V, len(entries))
	for i, we := range entries {
		raw, v, err := we.Decode()
		if err != nil {
			return 0, fmt.Errorf("%s: cache entry %d: %w", c.codec.Name, i, err)
		}
		keys[i], vals[i] = string(raw), v
	}
	added := 0
	for i := range keys {
		if c.insert(keys[i], vals[i]) {
			added++
		}
	}
	c.loaded.Add(int64(added))
	return added, nil
}

// Save writes every completed entry as JSON. In-flight entries are skipped
// (their owners have not published yet). Entries are sorted by
// fingerprint, so the file is a pure function of the cache contents:
// identical runs produce byte-identical cache files.
func (c *Cache[V, W]) Save(w io.Writer) error {
	entries, _ := c.Snapshot(0)
	return json.NewEncoder(w).Encode(file[W]{Version: c.codec.FileVersion, Entries: entries})
}

// Load merges a previously saved cache into c, returning how many entries
// were added (already-present fingerprints are kept, not overwritten).
//
// Load is all-or-nothing: the whole file is parsed and validated before a
// single entry is inserted, so a corrupt, truncated, or version-mismatched
// file returns an error and leaves the cache exactly as it was — callers
// fall back to a cold cache instead of half-poisoned state.
func (c *Cache[V, W]) Load(r io.Reader) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("%s: read cache: %w", c.codec.Name, err)
	}
	return c.load(data)
}

// load is Load over a file body already in memory.
func (c *Cache[V, W]) load(data []byte) (int, error) {
	var in file[W]
	if err := json.Unmarshal(data, &in); err != nil { //ioslint:untrusted persisted cache file bytes
		return 0, fmt.Errorf("%s: parse cache: %w", c.codec.Name, err)
	}
	if in.Version != c.codec.FileVersion {
		return 0, fmt.Errorf("%s: cache file version %d, want %d", c.codec.Name, in.Version, c.codec.FileVersion)
	}
	return c.Merge(in.Entries)
}

// SaveFile writes the cache to path atomically (see atomicfile.Write), so
// a crash mid-save never truncates a previously good cache file. Safe to
// call while fills are in flight: Snapshot cuts a consistent set of
// completed entries, so the file is loadable all-or-nothing regardless of
// what was mid-computation during the save.
func (c *Cache[V, W]) SaveFile(path string) error {
	return atomicfile.Write(path, c.Save)
}

// LoadFile merges the cache file at path into c; see Load. The file is
// read into one buffer sized from its length: growing a buffer to a
// measurement cache file's tens of megabytes allocates five times the
// file and runs a collection at every step — a third of a warm restart's
// time, and a different amount from one start to the next.
func (c *Cache[V, W]) LoadFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return c.load(data)
}
