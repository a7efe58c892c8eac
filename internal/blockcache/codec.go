package blockcache

import (
	"encoding/json"
	"fmt"

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
// search that can run for seconds.
type Cache = sfcache.Cache[*Entry, WireEntry]

// Claim is an exclusive lease on one missing fingerprint: the holder runs
// the block search and calls Commit, or Abandon on failure. See
// sfcache.Claim.
type Claim = sfcache.Claim[*Entry]

// Stats is a snapshot of the cache's traffic counters; Misses count block
// DP searches.
type Stats = sfcache.Stats

// NewCache returns an empty, unbounded block cache — the right default for
// optimizing a fixed set of models, where the entry count is bounded by
// the models' distinct block structures.
func NewCache() *Cache { return NewCacheSize(0) }

// NewCacheSize returns an empty cache holding at most maxEntries completed
// entries (0 or negative = unbounded); see sfcache.New.
func NewCacheSize(maxEntries int) *Cache {
	return sfcache.New(sfcache.Codec[*Entry, WireEntry]{
		Name:        "blockcache",
		FileVersion: fileVersion,
		Encode:      wireEntry,
		// A file record is the wire JSON: one validator for file and peers.
		AppendRecord: func(dst []byte, key string, v *Entry) ([]byte, error) {
			rec, err := json.Marshal(wireEntry(sfcache.EncodeKey(key), v))
			return append(dst, rec...), err
		},
		ParseRecord: parseRecord,
	}, maxEntries)
}

// parseRecord validates one cache-file record: Decode over its JSON.
//
//ioslint:validator
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
//
//ioslint:validator
func (we WireEntry) Decode() ([]byte, *Entry, error) {
	raw, err := sfcache.DecodeKey(we.Key, KeyVersion)
	if err != nil {
		return nil, nil, err
	}
	v := &Entry{Ops: we.Ops, States: we.States, Transitions: we.Transitions}
	for si, ws := range we.Stages {
		strat, err := parseStrategy(ws.Strategy)
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

// parseStrategy maps a persisted strategy name back to its value,
// accepting the same spellings as schedule.FromJSON.
func parseStrategy(name string) (schedule.Strategy, error) {
	switch name {
	case schedule.Concurrent.String(), "concurrent":
		return schedule.Concurrent, nil
	case schedule.Merge.String(), "merge":
		return schedule.Merge, nil
	}
	return 0, fmt.Errorf("blockcache: unknown strategy %q", name)
}
