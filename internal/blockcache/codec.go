package blockcache

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ios/internal/atomicfile"
	"ios/internal/schedule"
	"ios/internal/sfcache"
)

// fileVersion is the persisted-file format version (independent of
// KeyVersion, which versions the fingerprint encoding itself and is
// embedded in every key's first byte).
const fileVersion = 2

// Cache is the whole-block schedule cache: sfcache's sharded singleflight
// core mapping a canonical block fingerprint (see Fingerprint) to the
// completed block schedule in canonical form (see Entry). The first
// goroutine to miss a structure claims it and runs the block's DP search
// while concurrent requesters wait — so a repeated cell is searched once
// no matter how many of a network's blocks (or serving requests) race to
// it — and a waiter whose request is cancelled is not wedged behind a
// search that can run for seconds. Call NewCache or NewCacheSize.
type Cache struct {
	*sfcache.Core[*Entry]
}

// Claim is an exclusive lease on one missing fingerprint: the holder runs
// the block search and calls Commit, or Abandon on failure.
type Claim = sfcache.Claim[*Entry]

// Stats is a snapshot of the traffic counters; Misses count block
// searches, and Rejected the entries searched again in place because
// Rebind refused them.
type Stats = sfcache.Stats

// NewCache returns an empty, unbounded block cache: for a fixed set of
// models, their distinct block structures bound it.
func NewCache() *Cache { return NewCacheSize(0) }

// NewCacheSize returns an empty cache holding at most maxEntries completed
// entries (0 or negative = unbounded); see sfcache.NewCore.
func NewCacheSize(maxEntries int) *Cache { return &Cache{sfcache.NewCore[*Entry](maxEntries)} }

// Snapshot exports the completed entries published after a cut point
// (0: the whole cache, as inspectable JSON), sorted by fingerprint, and
// the point to pass next; see sfcache.Core.Cut.
func (c *Cache) Snapshot(since uint64) ([]WireEntry, uint64) { return wireRows(c.Cut(since)) }

// Own is Snapshot without the entries a peer sent (Merge, MergeFrames):
// what a cluster node pushes.
func (c *Cache) Own(since uint64) ([]WireEntry, uint64) { return wireRows(c.CutOwn(since)) }

func wireRows(rows []sfcache.Row[*Entry], next uint64) ([]WireEntry, uint64) {
	out := make([]WireEntry, len(rows))
	for i, r := range rows {
		out[i] = wireEntry(sfcache.EncodeKey(r.Key), r.Val)
	}
	return out, next
}

// Merge validates a peer's entries and inserts the absent ones (a present
// fingerprint is kept), returning how many it added; they count toward
// Stats.Loaded, and Own skips them. A corrupt entry anywhere rejects the
// whole batch before anything is inserted.
func (c *Cache) Merge(entries []WireEntry) (int, error) {
	rows := make([]sfcache.Row[*Entry], len(entries))
	for i, we := range entries {
		raw, v, err := we.Decode()
		if err != nil {
			return 0, fmt.Errorf("blockcache: cache entry %d: %w", i, err)
		}
		rows[i] = sfcache.Row[*Entry]{Key: string(raw), Val: v}
	}
	return c.InsertPeerRows(rows), nil
}

// Save writes the completed entries as sfcache's frames, one wire-JSON
// record each, sorted by fingerprint: equal contents, equal bytes.
func (c *Cache) Save(w io.Writer) error {
	rows, _ := c.Cut(0)
	return sfcache.WriteFrames(w, "blockcache", fileVersion, nil, rows,
		func(dst []byte, key string, v *Entry) ([]byte, error) {
			rec, err := json.Marshal(wireEntry(sfcache.EncodeKey(key), v))
			return append(dst, rec...), err
		})
}

// Load merges a saved cache into c, all or nothing (see
// sfcache.ReadFrames), returning how many entries it added; Own exports them.
func (c *Cache) Load(r io.Reader) (int, error) { return c.load(r, c.InsertRows) }

// MergeFrames is Load for a peer's snapshot: its entries, like Merge's,
// are a peer's.
func (c *Cache) MergeFrames(r io.Reader) (int, error) { return c.load(r, c.InsertPeerRows) }

func (c *Cache) load(r io.Reader, insert func([]sfcache.Row[*Entry]) int) (int, error) {
	chunks, err := sfcache.ReadFrames(r, "blockcache", fileVersion, nil, parseRecord)
	added := 0
	for _, rows := range chunks {
		added += insert(rows)
	}
	return added, err
}

// SaveFile writes the cache to path atomically (see atomicfile.Write);
// it is safe while fills are in flight.
func (c *Cache) SaveFile(path string) error { return atomicfile.Write(path, c.Save) }

// LoadFile merges the cache file at path into c; see Load.
func (c *Cache) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return c.Load(f)
}

// parseRecord validates one cache-file record: Decode over its JSON.
func parseRecord(rec []byte) ([]byte, *Entry, error) {
	var we WireEntry
	if err := json.Unmarshal(rec, &we); err != nil {
		return nil, nil, err
	}
	return we.Decode()
}

// WireEntry is the wire form of one completed block schedule — the unit
// of cluster peer exchange, of Snapshot, and (as JSON) of a cache-file
// record.
type WireEntry struct {
	// Key is the canonical block fingerprint, base64 (raw URL alphabet).
	Key string `json:"key"`
	// Ops is the block's operator count.
	Ops int `json:"ops"`
	// States and Transitions are the recorded DP search cost.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	// Stages is the canonical stage list over block-local indices.
	Stages []WireStage `json:"stages"`
}

// WireStage is one canonical stage of a WireEntry.
type WireStage struct {
	Strategy string  `json:"strategy"`
	Groups   [][]int `json:"groups"`
}

// Decode validates a wire entry and returns its raw fingerprint and
// canonical Entry. It rejects malformed base64, keys built by an
// incompatible fingerprint-encoding version, unknown strategies, and
// structurally inconsistent stage lists (Entry.validate — every block
// operator scheduled exactly once, groups non-empty).
func (we WireEntry) Decode() ([]byte, *Entry, error) {
	raw, err := sfcache.DecodeKey(we.Key, KeyVersion)
	if err != nil {
		return nil, nil, err
	}
	v := &Entry{Ops: we.Ops, States: we.States, Transitions: we.Transitions}
	for si, ws := range we.Stages {
		strat, err := schedule.ParseStrategy(ws.Strategy)
		if err != nil {
			return nil, nil, fmt.Errorf("stage %d: %w", si+1, err)
		}
		v.Stages = append(v.Stages, Stage{Strategy: strat, Groups: ws.Groups})
	}
	if err := v.validate(); err != nil {
		return nil, nil, err
	}
	return raw, v, nil
}

// wireEntry renders a completed entry into its wire form; key is already
// wire-encoded.
func wireEntry(key string, v *Entry) WireEntry {
	we := WireEntry{Key: key, Ops: v.Ops, States: v.States, Transitions: v.Transitions}
	for _, st := range v.Stages {
		we.Stages = append(we.Stages, WireStage{Strategy: st.Strategy.String(), Groups: st.Groups})
	}
	return we
}
