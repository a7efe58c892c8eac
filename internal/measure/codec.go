package measure

import (
	"encoding/binary"
	"fmt"
	"math"

	"ios/internal/sfcache"
)

// fileVersion is the persisted-file format version (independent of
// KeyVersion, which versions the key encoding itself and is embedded in
// every key's first byte).
const fileVersion = 2

// Cache is the stage-measurement cache: sfcache's sharded singleflight
// core mapping a canonical stage fingerprint (see Context/AppendStreams)
// to its exact simulated latency in seconds. The first goroutine to miss
// a fingerprint claims it and runs the simulator while concurrent
// requesters wait, so a fingerprint is never simulated twice.
type Cache = sfcache.Cache[float64, WireEntry]

// Claim is an exclusive lease on one missing fingerprint: the holder
// measures and calls Commit, or Abandon on failure. See sfcache.Claim.
type Claim = sfcache.Claim[float64, WireEntry]

// Stats is a snapshot of the cache's traffic counters; Misses count
// simulator runs.
type Stats = sfcache.Stats

// NewCache returns an empty, unbounded measurement cache — the right
// default for searches over a fixed workload, where the entry count is
// bounded by the workload's structure.
func NewCache() *Cache { return NewCacheSize(0) }

// NewCacheSize returns an empty cache holding at most maxEntries
// completed fingerprints (0 or negative = unbounded); see sfcache.New.
func NewCacheSize(maxEntries int) *Cache {
	return sfcache.New(sfcache.Codec[float64, WireEntry]{
		Name:        "measure",
		FileVersion: fileVersion,
		Encode:      func(key string, lat float64) WireEntry { return WireEntry{Key: key, Latency: lat} },
		// A file record: the raw fingerprint, then the latency's 8 bits, little-endian.
		AppendRecord: func(dst []byte, key string, lat float64) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(append(dst, key...), math.Float64bits(lat)), nil
		},
		ParseRecord: parseRecord,
	}, maxEntries)
}

// parseRecord applies Decode's checks to a cache-file record; key aliases rec.
//
//ioslint:validator
func parseRecord(rec []byte) ([]byte, float64, error) {
	if len(rec) < 8 {
		return nil, 0, fmt.Errorf("%d-byte record", len(rec))
	}
	key, lat := rec[:len(rec)-8], math.Float64frombits(binary.LittleEndian.Uint64(rec[len(rec)-8:]))
	if err := sfcache.CheckKey(key, KeyVersion); err != nil {
		return nil, 0, err
	}
	return key, lat, checkLatency(lat)
}

// checkLatency rejects what no simulator run returns.
func checkLatency(lat float64) error {
	if math.IsNaN(lat) || math.IsInf(lat, 0) || lat < 0 {
		return fmt.Errorf("invalid latency %v", lat)
	}
	return nil
}

// WireEntry is the wire form of one completed measurement — the unit of
// cluster peer exchange and of Snapshot, the cache's inspectable JSON.
type WireEntry struct {
	// Key is the canonical fingerprint, base64 (raw URL alphabet).
	Key string `json:"key"`
	// Latency is the cached simulator output in seconds.
	Latency float64 `json:"latency"`
}

// Decode validates a wire entry and returns its raw fingerprint and
// latency. It rejects malformed base64, keys built by an incompatible
// fingerprint-encoding version, and non-finite or negative latencies.
//
//ioslint:validator
func (we WireEntry) Decode() ([]byte, float64, error) {
	raw, err := sfcache.DecodeKey(we.Key, KeyVersion)
	if err != nil {
		return nil, 0, err
	}
	return raw, we.Latency, checkLatency(we.Latency)
}
